package ckks

import (
	"errors"
	"strings"
	"testing"

	"poseidon/internal/fault"
	"poseidon/internal/ring"
)

// Mid-op panic injection: every destination-passing op acquires arena
// scratch, and the sweeps must return all of it even when the op panics
// halfway through. These tests arm the fault injector's Panic class at every
// NTT/INTT visit of every op and assert that after the recovered panic the
// arena's BytesInUse is back at its pre-op baseline — with poison mode on, so
// a double-Put on the unwind path (a sweep racing an eager release) fails
// loudly instead of silently corrupting the free lists. The panicking
// surfaces speak the one error vocabulary: what they panic with is the
// *OpError the Try surfaces would have returned.

type panicLeakFixture struct {
	params *Parameters
	ev     *Evaluator
	// guarded is a second evaluator on the same keys with the guards and
	// the rescale spot-check on, so the sampled limb's pre-image is drawn
	// mid-op; ev stays unguarded for every other row.
	guarded *Evaluator
	swk     *SwitchingKey
	ct1     *Ciphertext
	ct2     *Ciphertext
	inj     *fault.Injector
	// baby and giant are the transform with diagonals 0 and 1 at baby-step
	// widths 2 and 1: the shared decomposition with a baby rotation, and a
	// giant-step keyswitch — both on the fixture's one rotation key.
	baby, giant *LinearTransform
}

func newPanicLeakFixture(t testing.TB) *panicLeakFixture {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
		Workers:  1, // serial: visit numbering is deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 421)
	sk := kgen.GenSecretKey()
	sk2 := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1}, true)
	swk := kgen.genSwitchingKey(sk.Value.Q, sk2, params.MaxLevel())
	ev := NewEvaluator(params, rlk, rtk)
	guarded := NewEvaluator(params, rlk, rtk)
	guarded.EnableGuards(424)
	guarded.EnableSpotCheck()

	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 422)
	level := params.MaxLevel()
	ct1 := encr.EncryptZero(level, params.Scale)
	ct2 := encr.EncryptZero(level, params.Scale)

	enc := NewEncoder(params)
	ones := make([]complex128, params.Slots)
	for i := range ones {
		ones[i] = 1
	}
	m := ltMatFromDiags(params.Slots, map[int][]complex128{0: ones, 1: ones})
	var lts [2]*LinearTransform
	for k, n1 := range []int{2, 1} {
		if lts[k], err = NewLinearTransformBSGS(enc, m, level, params.Scale, n1); err != nil {
			t.Fatal(err)
		}
	}

	inj := fault.NewInjector(423)
	params.RingQ.SetFaultInjector(inj)
	params.RingP.SetFaultInjector(inj)
	params.Arena().SetPoison(true)
	t.Cleanup(func() {
		params.RingQ.SetFaultInjector(nil)
		params.RingP.SetFaultInjector(nil)
	})
	return &panicLeakFixture{params: params, ev: ev, guarded: guarded, swk: swk, ct1: ct1, ct2: ct2, inj: inj, baby: lts[0], giant: lts[1]}
}

// panicLeakOps enumerates every op that owns arena scratch mid-flight.
// Each closure gets fresh output containers so a half-written destination
// from an aborted run never feeds the next one, and returns what it computed.
func (fx *panicLeakFixture) ops() []struct {
	name string
	f    func() []*Ciphertext
} {
	ev, params := fx.ev, fx.params
	level := fx.ct1.Level
	one := func(ct *Ciphertext) []*Ciphertext { return []*Ciphertext{ct} }
	return []struct {
		name string
		f    func() []*Ciphertext
	}{
		{"MulRelinInto", func() []*Ciphertext { return one(ev.MulRelinInto(NewCiphertext(params, level), fx.ct1, fx.ct2)) }},
		{"RescaleInto", func() []*Ciphertext { return one(ev.RescaleInto(NewCiphertext(params, level-1), fx.ct1)) }},
		{"RotateInto", func() []*Ciphertext { return one(ev.RotateInto(NewCiphertext(params, level), fx.ct1, 1)) }},
		{"ConjugateInto", func() []*Ciphertext { return one(ev.ConjugateInto(NewCiphertext(params, level), fx.ct1)) }},
		{"KeySwitchInto", func() []*Ciphertext { return one(ev.KeySwitchInto(NewCiphertext(params, level), fx.ct1, fx.swk)) }},
		{"RotateHoisted", func() []*Ciphertext {
			rot := rotateHoisted(ev, fx.ct1, []int{0, 1})
			return []*Ciphertext{rot[0], rot[1]}
		}},
		{"EvaluateLinearTransformInto/baby", func() []*Ciphertext {
			return one(ev.EvaluateLinearTransformInto(NewCiphertext(params, level), fx.ct1, fx.baby))
		}},
		{"EvaluateLinearTransformInto/giant", func() []*Ciphertext {
			return one(ev.EvaluateLinearTransformInto(NewCiphertext(params, level), fx.ct1, fx.giant))
		}},
		{"RescaleInto/spot-checked", func() []*Ciphertext {
			return one(fx.guarded.RescaleInto(NewCiphertext(params, level-1), fx.ct1))
		}},
	}
}

// sameCts reports whether two runs' outputs are bit-equal.
func sameCts(a, b []*Ciphertext) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Level != b[k].Level || a[k].Scale != b[k].Scale || !a[k].C0.Equal(b[k].C0) || !a[k].C1.Equal(b[k].C1) {
			return false
		}
	}
	return true
}

// isInjectedPanic reports whether a recovered panic value is the injected
// fault as exec reports it — an *OpError wrapping ErrInternal whose detail
// carries the injector's message — and not a secondary panic (a poison-mode
// double-Put) raised on the unwind path, which would carry its own text.
func isInjectedPanic(rec any) bool {
	oe, ok := rec.(*OpError)
	return ok && errors.Is(oe, ErrInternal) && strings.Contains(oe.Detail, "fault: injected panic")
}

// runWithInjectedPanic executes f once with the injector armed to panic at
// the given visit of the given site, recovers, and returns the recovered
// value (nil when the visit number was past the op's last visit, in which
// case the injector stays armed and is disarmed here).
func (fx *panicLeakFixture) runWithInjectedPanic(site fault.Site, visit uint64, f func() []*Ciphertext) (recovered any) {
	fx.inj.ResetVisits()
	fx.inj.ArmAt(site, fault.Panic, visit)
	defer fx.inj.Disarm()
	defer func() { recovered = recover() }()
	f()
	return nil
}

// TestMidOpPanicArenaBaseline sweeps every NTT/INTT visit of every
// scratch-owning op, injecting a panic there, and requires (a) the
// recovered value is the injected panic — not a poison-mode double-Put
// tripped on the unwind path —, (b) the arena returns to its pre-op
// BytesInUse baseline, and (c) the op run again with the injector disarmed
// — on the record the panic recycled — computes bit for bit what the
// warm-up did: no state the unwind left behind (a permutation, a pending
// sum, borrowed digits, baby rotations) reaches the next op.
func TestMidOpPanicArenaBaseline(t *testing.T) {
	fx := newPanicLeakFixture(t)
	for _, op := range fx.ops() {
		t.Run(op.name, func(t *testing.T) {
			want := op.f() // warm-up: free lists populated, no injector visits armed
			for _, site := range []fault.Site{fault.SiteNTT, fault.SiteINTT} {
				fx.inj.ResetVisits()
				op.f() // clean run counts this op's visits at the site
				visits := fx.inj.Stats().VisitsAt(site)
				if visits == 0 {
					continue
				}
				baseline := fx.params.ArenaStats().BytesInUse
				for v := uint64(0); v < visits; v++ {
					rec := fx.runWithInjectedPanic(site, v, op.f)
					if rec == nil {
						t.Fatalf("%s: armed panic at %v visit %d/%d never fired", op.name, site, v, visits)
					}
					if !isInjectedPanic(rec) {
						t.Fatalf("%s: %v visit %d: recovered %v, want the injected panic (a secondary panic on the unwind path?)", op.name, site, v, rec)
					}
					if inUse := fx.params.ArenaStats().BytesInUse; inUse != baseline {
						t.Fatalf("%s: %v visit %d: arena leaked across panic: in-use %d, baseline %d", op.name, site, v, inUse, baseline)
					}
					if got := op.f(); !sameCts(got, want) {
						t.Fatalf("%s: %v visit %d: the clean run after the panic differs from the warm-up", op.name, site, v)
					}
				}
			}
		})
	}
}

// FuzzMidOpPanicArena is the randomized version of the sweep above: the
// fuzzer picks the op, the site, and the visit. Out-of-range visits are
// legal — the panic simply never fires and the op must complete cleanly,
// still returning to baseline.
func FuzzMidOpPanicArena(f *testing.F) {
	f.Add(uint8(0), false, uint16(0))
	f.Add(uint8(1), true, uint16(1))
	f.Add(uint8(2), false, uint16(3))
	f.Add(uint8(3), true, uint16(2))
	f.Add(uint8(4), false, uint16(7))
	f.Add(uint8(5), false, uint16(65535))

	fx := newPanicLeakFixture(f)
	ops := fx.ops()
	for _, op := range ops {
		op.f() // warm-up outside the fuzz loop
	}

	f.Fuzz(func(t *testing.T, opIdx uint8, inverse bool, visit uint16) {
		op := ops[int(opIdx)%len(ops)]
		site := fault.SiteNTT
		if inverse {
			site = fault.SiteINTT
		}
		baseline := fx.params.ArenaStats().BytesInUse
		rec := fx.runWithInjectedPanic(site, uint64(visit), op.f)
		if rec != nil {
			if !isInjectedPanic(rec) {
				t.Fatalf("%s: %v visit %d: recovered %v, want the injected panic", op.name, site, visit, rec)
			}
		}
		if inUse := fx.params.ArenaStats().BytesInUse; inUse != baseline {
			t.Fatalf("%s: %v visit %d: arena leaked: in-use %d, baseline %d (panicked: %v)", op.name, site, visit, inUse, baseline, rec != nil)
		}
	})
}

// TestMidOpPanicEvalMod extends the sweep to the compiled sine: a panic at a
// transform inside either EvalMod half of one Bootstrap — wherever in the
// plan that is, with whatever slots are checked out — comes back as the
// error of the op it hit, and the plan's sweep returns every slot. The two
// halves are thousands of visits, so the sweep strides through them; serial, so the numbering is deterministic and the second half's
// visits follow the first's.
func TestMidOpPanicEvalMod(t *testing.T) {
	fx := newBootFixture(t, 5, 1)
	params, boot := fx.params, fx.boot
	inj := fault.NewInjector(424)
	for _, r := range []*ring.Ring{params.RingQ, params.RingP} {
		r.SetFaultInjector(inj)
	}
	params.Arena().SetPoison(true)
	if _, err := boot.Bootstrap(fx.ct); err != nil { // warm-up
		t.Fatal(err)
	}
	for _, site := range []fault.Site{fault.SiteNTT, fault.SiteINTT} {
		inj.ResetVisits()
		c0, c1 := boot.CoeffToSlot(boot.ModRaise(fx.ct))
		lo := inj.Stats().VisitsAt(site)
		boot.EvalMod(c0)
		mid := inj.Stats().VisitsAt(site)
		boot.EvalMod(c1)
		hi := inj.Stats().VisitsAt(site)
		baseline := params.ArenaStats().BytesInUse
		visits := []uint64{lo, mid - 1, mid, hi - 1} // both halves' first and last …
		for v := lo + 1; v < hi; v += (hi - lo) / 24 {
			visits = append(visits, v) // … and a stride through everything between
		}
		for _, v := range visits {
			inj.ResetVisits()
			inj.ArmAt(site, fault.Panic, v)
			_, err := boot.Bootstrap(fx.ct)
			inj.Disarm()
			var oe *OpError
			if !errors.As(err, &oe) || !isInjectedPanic(oe) {
				t.Fatalf("%v visit %d of [%d, %d): Bootstrap returned %v, want the injected panic as an op error", site, v, lo, hi, err)
			}
			if inUse := params.ArenaStats().BytesInUse; inUse != baseline {
				t.Fatalf("%v visit %d: plan slots leaked across the panic: in-use %d, baseline %d", site, v, inUse, baseline)
			}
		}
	}
}

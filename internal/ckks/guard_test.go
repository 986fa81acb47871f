package ckks

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"poseidon/internal/fault"
	"poseidon/internal/ring"
)

// guardContext builds a small instance with every key loaded, a serial
// evaluator, and deterministic operand ciphertexts.
type guardContext struct {
	params *Parameters
	ev     *Evaluator
	enc    *Encoder
	sk     *SecretKey
}

func newGuardContext(t testing.TB) *guardContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51},
		LogScale: 40,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1, -1, 2}, true)
	return &guardContext{
		params: params,
		ev:     NewEvaluator(params, rlk, rtk),
		enc:    NewEncoder(params),
		sk:     sk,
	}
}

func (gc *guardContext) inputs(t testing.TB, seed int64, level int) (*Ciphertext, *Ciphertext, *Plaintext) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	kgen := NewKeyGenerator(gc.params, 42)
	encr := NewEncryptor(gc.params, kgen.GenPublicKey(gc.sk), seed+1)
	a := encr.Encrypt(gc.enc.Encode(randomComplex(rng, gc.params.Slots, 1.0), level, gc.params.Scale))
	b := encr.Encrypt(gc.enc.Encode(randomComplex(rng, gc.params.Slots, 1.0), level, gc.params.Scale))
	pt := gc.enc.Encode(randomComplex(rng, gc.params.Slots, 1.0), level, gc.params.Scale)
	return a, b, pt
}

// With guards and the spot-check enabled, every Try operation on clean
// inputs must return no error (zero false positives) and produce results
// bit-identical to the direct Into API.
func TestTryOpsCleanNoFalsePositives(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(7)
	ev.EnableSpotCheck()
	a, b, pt := gc.inputs(t, 1, gc.params.MaxLevel())
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)
	log := &eventLog{}
	ev.SetObserver(log)

	ref := NewEvaluator(gc.params, ev.rlk, ev.rtks) // guards off

	cases := []struct {
		name string
		try  func() (*Ciphertext, error)
		want func() *Ciphertext
	}{
		{"Add", func() (*Ciphertext, error) { return ev.TryAddInto(nil, a, b) },
			func() *Ciphertext { return ref.Add(a, b) }},
		{"Sub", func() (*Ciphertext, error) { return ev.TrySubInto(nil, a, b) },
			func() *Ciphertext { return ref.Sub(a, b) }},
		{"Neg", func() (*Ciphertext, error) { return ev.TryNegInto(nil, a) },
			func() *Ciphertext { return ref.Neg(a) }},
		{"AddPlain", func() (*Ciphertext, error) {
			return ev.TryAddPlainInto(nil, a, pt)
		}, func() *Ciphertext { return ref.AddPlain(a, pt) }},
		{"MulPlain", func() (*Ciphertext, error) {
			return ev.TryMulPlainInto(nil, a, pt)
		}, func() *Ciphertext { return ref.MulPlain(a, pt) }},
		{"MulRelin", func() (*Ciphertext, error) { return ev.TryMulRelinInto(nil, a, b) },
			func() *Ciphertext { return ref.MulRelin(a, b) }},
		{"Rescale", func() (*Ciphertext, error) { return ev.TryRescaleInto(nil, ref.MulRelin(a, b)) },
			func() *Ciphertext { return ref.Rescale(ref.MulRelin(a, b)) }},
		{"Rotate", func() (*Ciphertext, error) { return ev.TryRotateInto(nil, a, 1) },
			func() *Ciphertext { return ref.Rotate(a, 1) }},
		{"Conjugate", func() (*Ciphertext, error) { return ev.TryConjugateInto(nil, a) },
			func() *Ciphertext { return ref.Conjugate(a) }},
	}
	for _, tc := range cases {
		got, err := tc.try()
		if err != nil {
			t.Fatalf("%s: unexpected error on clean inputs: %v", tc.name, err)
		}
		requireCtEqual(t, got, tc.want(), tc.name)
		if got.seal == nil {
			t.Fatalf("%s: output not sealed with guards enabled", tc.name)
		}
	}
	if len(log.all()) == 0 {
		t.Fatal("no op was reported")
	}
	if f := log.failed(); len(f) != 0 {
		t.Fatalf("clean run reported failures: %+v", f)
	}
}

// sentinelCase is one cell of the sentinel table before it is run: the
// evaluator, the operands and the destination a condition has tampered with.
type sentinelCase struct {
	ev   *Evaluator
	a, b *Ciphertext
	pt   *Plaintext
	swk  *SwitchingKey
	out  *Ciphertext
}

// opErrorOf extracts the *OpError a surface delivered: returned by the Try
// forms, panicked with by the others. Anything else — no failure, a raw
// panic value — is nil.
func opErrorOf(f func() error) (oe *OpError) {
	defer func() {
		if r := recover(); r != nil {
			oe, _ = r.(*OpError)
		}
	}()
	errors.As(f(), &oe)
	return oe
}

// coeffDomain returns a copy of ct with its polys moved out of the NTT
// domain: well-formed rows no evaluator op may accept.
func coeffDomain(params *Parameters, ct *Ciphertext) *Ciphertext {
	ct = ct.CopyNew()
	params.RingQ.INTT(ct.C0)
	params.RingQ.INTT(ct.C1)
	return ct
}

// TestTrySentinels is one table over the op list: for every op × every misuse
// that applies to it, every surface the op has must deliver the *same*
// *OpError — same sentinel (errors.Is), same Op, same Level — the Try forms
// by returning it, the others by panicking with it.
func TestTrySentinels(t *testing.T) {
	gc := newGuardContext(t)
	params := gc.params
	top := params.MaxLevel()
	a0, b0, pt0 := gc.inputs(t, 2, top)
	kgen := NewKeyGenerator(params, 43)
	swk0 := kgen.genSwitchingKey(gc.sk.Value.Q, kgen.GenSecretKey(), top)

	noKeys := NewEvaluator(params, nil, nil)
	otherKeys := NewEvaluator(params, gc.ev.rlk, NewKeyGenerator(params, 44).GenRotationKeys(gc.sk, []int{2}, false))
	guarded := NewEvaluator(params, gc.ev.rlk, gc.ev.rtks)
	guarded.EnableGuards(1)

	shortRows := func(p *ring.Poly) *ring.Poly { // limb 1 cut to N/2 words
		q := &ring.Poly{Coeffs: append([][]uint64(nil), p.Coeffs...), IsNTT: p.IsNTT}
		q.Coeffs[1] = q.Coeffs[1][:params.N/2]
		return q
	}
	conds := []struct {
		name     string
		want     error
		ops      string // space-separated intoOps rows it applies to; "" = all
		intoOnly bool   // a condition on the destination: only the *Into surfaces see it
		arm      func(c *sentinelCase)
	}{
		{"nil operand", ErrInvalidInput, "", false, func(c *sentinelCase) { c.a = nil }},
		{"over-level operand", ErrInvalidInput, "", false, func(c *sentinelCase) {
			c.a = c.a.CopyNew()
			c.a.Level = 99
		}},
		{"short-limb operand", ErrInvalidInput, "", false, func(c *sentinelCase) {
			c.a = &Ciphertext{C0: prefix(c.a.C0, 1), C1: prefix(c.a.C1, 1), Scale: c.a.Scale, Level: top}
		}},
		{"short-row operand", ErrInvalidInput, "", false, func(c *sentinelCase) {
			c.a = &Ciphertext{C0: c.a.C0, C1: shortRows(c.a.C1), Scale: c.a.Scale, Level: top}
		}},
		{"mismatched limb counts", ErrInvalidInput, "", false, func(c *sentinelCase) {
			c.a = &Ciphertext{C0: c.a.C0, C1: prefix(c.a.C1, top), Scale: c.a.Scale, Level: top}
		}},
		{"coefficient-domain operand", ErrInvalidInput, "", false, func(c *sentinelCase) { c.a = coeffDomain(params, c.a) }},
		{"coefficient-domain second operand", ErrInvalidInput, "Add Sub MulRelin", false, func(c *sentinelCase) { c.b = coeffDomain(params, c.b) }},
		{"coefficient-domain plaintext", ErrInvalidInput, "AddPlain MulPlain", false, func(c *sentinelCase) {
			v := c.pt.Value.CopyNew()
			params.RingQ.INTT(v)
			c.pt = &Plaintext{Value: v, Scale: c.pt.Scale, Level: c.pt.Level}
		}},
		{"short-row second operand", ErrInvalidInput, "Add Sub MulRelin", false, func(c *sentinelCase) {
			c.b = &Ciphertext{C0: shortRows(c.b.C0), C1: c.b.C1, Scale: c.b.Scale, Level: top}
		}},
		{"short-row plaintext", ErrInvalidInput, "AddPlain MulPlain", false, func(c *sentinelCase) {
			c.pt = &Plaintext{Value: shortRows(c.pt.Value), Scale: c.pt.Scale, Level: c.pt.Level}
		}},
		{"undersized destination", ErrInvalidInput, "", true, func(c *sentinelCase) { c.out = NewCiphertext(params, 0) }},
		{"short-row destination", ErrInvalidInput, "", true, func(c *sentinelCase) { c.out.C1 = shortRows(c.out.C1) }},
		{"scale mismatch", ErrScaleMismatch, "Add Sub AddPlain", false, func(c *sentinelCase) {
			c.b = c.b.CopyNew()
			c.b.Scale *= 3
			c.pt = &Plaintext{Value: c.pt.Value, Scale: c.pt.Scale * 2, Level: c.pt.Level}
		}},
		{"missing relin key", ErrKeyMissing, "MulRelin", false, func(c *sentinelCase) { c.ev = noKeys }},
		{"rotation keys not loaded", ErrKeyMissing, "Rotate+1 Conjugate", false, func(c *sentinelCase) { c.ev = noKeys }},
		{"ungenerated rotation key", ErrKeyMissing, "Rotate+1 Conjugate", false, func(c *sentinelCase) { c.ev = otherKeys }},
		{"missing switching key", ErrKeyMissing, "KeySwitch", false, func(c *sentinelCase) { c.swk = nil }},
		{"aliased destination", ErrAliasedDestination, "MulRelin", true, func(c *sentinelCase) {
			c.a = c.a.CopyNew()
			c.out = c.a
		}},
		{"rescale at level 0", ErrLevelExhausted, "Rescale", false, func(c *sentinelCase) { c.a = c.ev.DropLevel(c.a, 0) }},
		// At level 0 the chain holds ~2^50; a squared scale of 2^80 cannot fit.
		{"exhausted modulus headroom", ErrLevelExhausted, "MulPlain MulRelin", false, func(c *sentinelCase) {
			c.ev = guarded
			c.a, c.b = c.ev.DropLevel(c.a, 0), c.ev.DropLevel(c.b, 0)
			c.pt = &Plaintext{Value: c.pt.Value, Scale: c.pt.Scale, Level: 0}
		}},
	}

	for _, op := range intoOps {
		for _, cond := range conds {
			if cond.ops != "" && !slices.Contains(strings.Fields(cond.ops), op.name) {
				continue
			}
			t.Run(op.name+"/"+cond.name, func(t *testing.T) {
				c := &sentinelCase{ev: gc.ev, a: a0, b: b0, pt: pt0, swk: swk0, out: NewCiphertext(params, top)}
				cond.arm(c)
				dc := &diffContext{swk: c.swk}
				surfaces := map[string]func() error{
					op.name + "Into": func() error { op.into(c.ev, c.out, c.a, c.b, c.pt, dc); return nil },
					"Try" + op.name + "Into": func() error {
						_, err := op.tryInto(c.ev, c.out, c.a, c.b, c.pt, dc)
						return err
					},
				}
				if !cond.intoOnly {
					surfaces[op.name] = func() error { op.alloc(c.ev, c.a, c.b, c.pt, dc); return nil }
					surfaces["Try"+op.name+"Into(nil)"] = func() error {
						_, err := op.tryInto(c.ev, nil, c.a, c.b, c.pt, dc)
						return err
					}
				}
				var first *OpError
				for name, f := range surfaces {
					oe := opErrorOf(f)
					if oe == nil || !errors.Is(oe, cond.want) || oe.Op != op.d.name {
						t.Fatalf("%s delivered %v, want an *OpError{Op: %q} wrapping %v", name, oe, op.d.name, cond.want)
					}
					if first == nil {
						first = oe
					}
					if oe.Level != first.Level {
						t.Fatalf("%s reports level %d, another surface %d", name, oe.Level, first.Level)
					}
					if cond.name == "exhausted modulus headroom" && !strings.Contains(oe.Detail, "modulus headroom exhausted") {
						t.Fatalf("%s detail %q does not name the modulus headroom", name, oe.Detail)
					}
				}
			})
		}
	}
}

// A manually flipped bit in a sealed ciphertext is caught by
// VerifyIntegrity and by the next Try operation's input boundary.
func TestSealDetectsCorruption(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(3)
	a, b, _ := gc.inputs(t, 3, gc.params.MaxLevel())
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)
	if err := ev.VerifyIntegrity(a); err != nil {
		t.Fatalf("clean verify: %v", err)
	}

	a.C1.Coeffs[1][17] ^= 1 << 44
	log := &eventLog{}
	ev.SetObserver(log)
	err := ev.VerifyIntegrity(a)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("verify after flip: got %v, want ErrIntegrity", err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Limb != 1 {
		t.Fatalf("error does not name the corrupted limb: %v", err)
	}

	out := NewCiphertext(gc.params, gc.params.MaxLevel())
	if _, err := ev.TryAddInto(out, a, b); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("op input boundary after flip: got %v, want ErrIntegrity", err)
	}
	if got := log.all(); len(got) != 1 || got[0].Op != "HAdd" || !errors.Is(got[0].Err, ErrIntegrity) {
		t.Fatalf("events = %+v, want the one failed HAdd carrying ErrIntegrity", got)
	}
}

// VerifyIntegrity never panics: a nil, hollow or short-row ciphertext is an
// *OpError wrapping ErrInvalidInput, as it is at an op's input boundary.
func TestVerifyIntegrityInvalidInput(t *testing.T) {
	gc := newGuardContext(t)
	a, _, _ := gc.inputs(t, 5, gc.params.MaxLevel())
	short := a.CopyNew()
	short.C0.Coeffs[1] = short.C0.Coeffs[1][:gc.params.N/2]
	for _, tc := range []struct {
		name string
		ct   *Ciphertext
	}{{"nil", nil}, {"hollow", &Ciphertext{}}, {"short row", short}} {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panicked: %v", tc.name, r)
				}
			}()
			err = gc.ev.VerifyIntegrity(tc.ct)
		}()
		var oe *OpError
		if !errors.As(err, &oe) || !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: got %v, want an *OpError wrapping ErrInvalidInput", tc.name, err)
		}
	}
}

// A view DropLevel cuts from a sealed ciphertext keeps the seal of the limbs
// it holds: a bit flipped in one of them is caught on the view, by
// VerifyIntegrity and at an op's input boundary, and re-sealing the view
// leaves the original's seal as it was.
func TestDropLevelKeepsSeal(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(9)
	top := gc.params.MaxLevel()
	a, b, _ := gc.inputs(t, 9, top)
	ev.SealIntegrity(a)
	if err := ev.VerifyIntegrity(ev.DropLevel(a, top-1)); err != nil {
		t.Fatalf("clean view: %v", err)
	}
	if _, err := ev.TryAddInto(nil, ev.DropLevel(a, top-1), b); err != nil {
		t.Fatalf("op on a clean view: %v", err)
	}

	a.C0.Coeffs[0][5] ^= 1 << 30
	view := ev.DropLevel(a, top-1)
	if err := ev.VerifyIntegrity(view); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("verify view after flip: got %v, want ErrIntegrity", err)
	}
	if _, err := ev.TryAddInto(nil, view, b); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("op input boundary on the view after flip: got %v, want ErrIntegrity", err)
	}
	ev.SealIntegrity(view)
	if err := ev.VerifyIntegrity(a); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("re-sealing the view re-armed the original: got %v, want ErrIntegrity", err)
	}
}

// A Hoisted handle holds no copy of its ciphertext: every rotation reads
// ct.C0 (and ct.C1, the digit-own rows of the decomposition) where they lie.
// With guards on each TryRotate therefore re-verifies the seal, so a
// ciphertext modified while the handle is live answers ErrIntegrity naming
// the limb — not a wrong rotation — and the handle works again once the
// ciphertext is what was hoisted.
func TestHoistedRotateDetectsMutatedCiphertext(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(17)
	a, _, _ := gc.inputs(t, 8, gc.params.MaxLevel())
	ev.SealIntegrity(a)
	want := ev.Rotate(a, 1)

	h, err := ev.TryHoist(a)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for _, p := range []*ring.Poly{a.C0, a.C1} {
		p.Coeffs[2][5] ^= 1 << 13
		_, err := h.TryRotate(1)
		var oe *OpError
		if !errors.Is(err, ErrIntegrity) || !errors.As(err, &oe) || oe.Limb != 2 {
			t.Fatalf("rotation of a mutated ciphertext: got %v, want ErrIntegrity on limb 2", err)
		}
		p.Coeffs[2][5] ^= 1 << 13
	}
	got, err := h.TryRotate(1)
	if err != nil {
		t.Fatalf("rotation after the ciphertext was restored: %v", err)
	}
	requireCtEqual(t, got, want, "Hoisted.TryRotate")
}

// faultChain is the injection campaign's workload: multiply-relinearize,
// rescale, rotate, accumulate, final read-back, on fresh sealed copies of
// the inputs (an injected fault corrupts the copies, never a and b). It
// returns the first guard error.
func (gc *guardContext) faultChain(a, b *Ciphertext) error {
	ev := gc.ev
	a, b = a.CopyNew(), b.CopyNew()
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)
	var drop, rot, acc *Ciphertext
	prod, err := ev.TryMulRelinInto(nil, a, b)
	if err == nil {
		drop, err = ev.TryRescaleInto(nil, prod)
	}
	if err == nil {
		rot, err = ev.TryRotateInto(nil, drop, 1)
	}
	if err == nil {
		acc, err = ev.TryAddInto(nil, drop, rot)
	}
	if err == nil {
		err = ev.VerifyIntegrity(acc)
	}
	return err
}

// faultCampaign runs faultChain under guards and the spot-check with one
// fault armed per trial (fewer trials under -short), at a visit of site drawn
// from the injector's seed over the visits a clean chain makes, and returns
// how many trials of each class answered ErrIntegrity — a function of the
// seeds alone. Disarmed chains before and after must come back clean.
func faultCampaign(t *testing.T, site fault.Site, classes ...fault.Class) (detected []int, trials int) {
	t.Helper()
	trials = 200
	if testing.Short() {
		trials = 60
	}
	gc := newGuardContext(t)
	gc.ev.EnableGuards(102)
	gc.ev.EnableSpotCheck()
	a, b, _ := gc.inputs(t, 100, gc.params.MaxLevel())
	in := fault.NewInjector(101)
	gc.params.RingQ.SetFaultInjector(in)
	gc.params.RingP.SetFaultInjector(in)

	clean := func(n int) {
		for i := 0; i < n; i++ {
			if err := gc.faultChain(a, b); err != nil {
				t.Fatalf("false positive: clean chain %d answered %v", i, err)
			}
		}
	}
	clean(1)
	visits := in.Stats().VisitsAt(site)
	detected = make([]int, len(classes))
	for ci, class := range classes {
		for i := 0; i < trials; i++ {
			in.ResetVisits()
			in.ArmRandom(site, class, visits)
			if err := gc.faultChain(a, b); errors.Is(err, ErrIntegrity) {
				detected[ci]++
			} else if err != nil {
				t.Fatalf("%s %s trial %d: %v, want ErrIntegrity or nil", site, class, i, err)
			}
		}
		t.Logf("%s %-14s %d/%d detected", site, class, detected[ci], trials)
	}
	if got := in.Stats().Injected; got != uint64(trials*len(classes)) {
		t.Fatalf("%d faults fired in %d trials", got, trials*len(classes))
	}
	clean(trials / 4)
	return detected, trials
}

// An injector-driven single-bit HBM fault during an operation's input
// read-back surfaces as ErrIntegrity — an error, not a panic — at every
// visit of one op and at every sampled visit of the campaign chain; the
// multi-coefficient classes can collide in a sum-mod-q checksum, so they are
// counted, logged and only required to be seen.
func TestInjectedHBMFaultDetected(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(5)
	a, b, _ := gc.inputs(t, 4, gc.params.MaxLevel())
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	in := fault.NewInjector(99)
	gc.params.RingQ.SetFaultInjector(in)
	defer gc.params.RingQ.SetFaultInjector(nil)

	// Clean pass to count HBM read-back visits — also the false-positive
	// check: a disarmed injector must not trip the guard.
	out := NewCiphertext(gc.params, gc.params.MaxLevel())
	if _, err := ev.TryAddInto(out, a, b); err != nil {
		t.Fatalf("clean pass errored: %v", err)
	}
	visits := in.Stats().VisitsAt(fault.SiteHBM)
	if visits == 0 {
		t.Fatal("no HBM read-back visits recorded")
	}

	for v := uint64(0); v < visits; v++ {
		in.ResetVisits()
		in.ArmAt(fault.SiteHBM, fault.BitFlip, v)
		_, err := ev.TryAddInto(out, a, b)
		if !errors.Is(err, ErrIntegrity) {
			t.Fatalf("visit %d: got %v, want ErrIntegrity", v, err)
		}
		// Repair for the next trial: re-apply the recorded flip and re-seal.
		// The read-back hooks interleave C0/C1 per limb, a's visits first.
		inj := in.Injections()
		last := inj[len(inj)-1]
		perCt := uint64(2 * (a.Level + 1))
		target, local := a, last.Visit
		if local >= perCt {
			target, local = b, local-perCt
		}
		poly := target.C0
		if local%2 == 1 {
			poly = target.C1
		}
		poly.Coeffs[last.Limb][last.Coeff] ^= 1 << uint(last.Bit)
		ev.SealIntegrity(a)
		ev.SealIntegrity(b)
	}

	got, trials := faultCampaign(t, fault.SiteHBM, fault.BitFlip, fault.MultiBitFlip, fault.StuckLane)
	if got[0] != trials || got[1] == 0 || got[2] == 0 {
		t.Fatalf("HBM detections %v of %d: want every single-bit flip and some of each other class", got, trials)
	}
}

// An operand passed twice — a squaring MulRelin(ct, ct), a doubling
// Add(ct, ct) — is read back and verified once: the op visits SiteHBM for one
// ciphertext, 2·(level+1) limbs, where two distinct operands make
// 4·(level+1). The one read still guards the operand: a single-bit flip at
// any of its visits is ErrIntegrity.
func TestSharedOperandVerifiedOnce(t *testing.T) {
	gc := newGuardContext(t) // one worker
	ev := gc.ev
	ev.EnableGuards(6)
	level := gc.params.MaxLevel()
	a, b, _ := gc.inputs(t, 6, level)
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	in := fault.NewInjector(7)
	gc.params.RingQ.SetFaultInjector(in)
	defer gc.params.RingQ.SetFaultInjector(nil)

	perCt := uint64(2 * (level + 1))
	ops := []struct {
		name string
		run  func() error
		want uint64
	}{
		{"MulRelin(a, a)", func() error { _, err := ev.TryMulRelinInto(nil, a, a); return err }, perCt},
		{"Add(a, a)", func() error { _, err := ev.TryAddInto(nil, a, a); return err }, perCt},
		{"MulRelin(a, b)", func() error { _, err := ev.TryMulRelinInto(nil, a, b); return err }, 2 * perCt},
		{"Add(a, b)", func() error { _, err := ev.TryAddInto(nil, a, b); return err }, 2 * perCt},
	}
	for _, op := range ops {
		in.ResetVisits()
		if err := op.run(); err != nil {
			t.Fatalf("%s: clean pass: %v", op.name, err)
		}
		if got := in.Stats().VisitsAt(fault.SiteHBM); got != op.want {
			t.Errorf("%s: %d HBM read-back visits, want %d", op.name, got, op.want)
		}
	}
	for _, op := range ops[:2] {
		for v := uint64(0); v < perCt; v++ {
			in.ResetVisits()
			in.ArmAt(fault.SiteHBM, fault.BitFlip, v)
			if err := op.run(); !errors.Is(err, ErrIntegrity) {
				t.Fatalf("%s, flip at visit %d: %v, want ErrIntegrity", op.name, v, err)
			}
			// Undo the flip; the seal holds again. Visits alternate C0, C1
			// per limb.
			inj := in.Injections()
			last := inj[len(inj)-1]
			poly := a.C0
			if last.Visit%2 == 1 {
				poly = a.C1
			}
			poly.Coeffs[last.Limb][last.Coeff] ^= 1 << uint(last.Bit)
		}
	}
	if err := ev.VerifyIntegrity(a); err != nil {
		t.Fatalf("repaired operand: %v", err)
	}
}

// The NTT spot-check catches a datapath fault injected into the forward
// transform of a rescale output (deterministic here: the level-0 output has
// a single limb, so the sampled limb is always the corrupted one). Over the
// campaign chain it samples one limb of one transform per op and sees a
// fraction of the faults: every class at least once — a dead spot-check
// reads zero — and never on a clean chain.
func TestSpotCheckDetectsNTTFault(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(11)
	ev.EnableSpotCheck()
	a, _, _ := gc.inputs(t, 5, 1)

	in := fault.NewInjector(7)
	gc.params.RingQ.SetFaultInjector(in)
	defer gc.params.RingQ.SetFaultInjector(nil)

	in.ArmAt(fault.SiteNTT, fault.StuckLane, 0)
	_, err := ev.TryRescaleInto(nil, a)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("got %v, want ErrIntegrity from the NTT spot-check", err)
	}
	if in.Stats().Injected != 1 {
		t.Fatal("fault did not fire")
	}

	got, trials := faultCampaign(t, fault.SiteNTT, fault.BitFlip, fault.StuckLane, fault.DroppedTwiddle)
	for ci, n := range got {
		if n == 0 {
			t.Fatalf("NTT class %d: none of %d datapath faults detected", ci, trials)
		}
	}
}

// The headroom guard flags a product scale the active chain cannot represent.
func TestNoiseGuardFlagsExhaustion(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(13)
	a, b, pt := gc.inputs(t, 6, gc.params.MaxLevel())

	if nb := bitsAboveScale(gc.params, a.Level, a.Scale); nb <= 0 {
		t.Fatalf("fresh ciphertext has non-positive budget %f", nb)
	}

	// At level 0 the chain holds ~2^50; a squared scale of 2^80 cannot fit.
	la, lb := ev.DropLevel(a, 0), ev.DropLevel(b, 0)
	log := &eventLog{}
	ev.SetObserver(log)
	out := NewCiphertext(gc.params, 0)
	if _, err := ev.TryMulRelinInto(out, la, lb); !errors.Is(err, ErrLevelExhausted) {
		t.Fatalf("exhausted MulRelin: got %v, want ErrLevelExhausted", err)
	}
	lpt := &Plaintext{Value: pt.Value, Scale: pt.Scale, Level: 0}
	if _, err := ev.TryMulPlainInto(out, la, lpt); !errors.Is(err, ErrLevelExhausted) {
		t.Fatalf("exhausted MulPlain: got %v, want ErrLevelExhausted", err)
	}
	f := log.failed()
	if len(f) != 2 || !errors.Is(f[0].Err, ErrLevelExhausted) || !errors.Is(f[1].Err, ErrLevelExhausted) {
		t.Fatalf("failed events = %+v, want two carrying ErrLevelExhausted", f)
	}
}

// An injected mid-operation panic (the Panic fault class) is converted by
// the recovery boundary into an ErrInternal-wrapped error; the process — and
// the arena — survive. The failure is reported once, at the level the op ran
// at — the lower operand's, not the first operand's — and an op that is not
// observed when it succeeds (Neg) is not observed when it fails either.
func TestInjectedPanicRecovered(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	ev.EnableGuards(17)
	a, b, _ := gc.inputs(t, 7, gc.params.MaxLevel())
	b = ev.DropLevel(b, a.Level-1)
	log := &eventLog{}
	ev.SetObserver(log)

	in := fault.NewInjector(1)
	gc.params.RingQ.SetFaultInjector(in)
	defer gc.params.RingQ.SetFaultInjector(nil)

	base := gc.params.ArenaStats().BytesInUse
	in.ArmAt(fault.SiteNTT, fault.Panic, 2)
	_, err := ev.TryMulRelinInto(nil, a, b)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("got %v, want ErrInternal wrap of injected panic", err)
	}
	if got := gc.params.ArenaStats().BytesInUse; got != base {
		t.Fatalf("arena leaked across recovered panic: in-use %d, baseline %d", got, base)
	}
	var oe *OpError
	if !errors.As(err, &oe) || oe.Level != b.Level {
		t.Fatalf("internal failure reports level %d, the op ran at %d", oe.Level, b.Level)
	}
	if got := log.all(); len(got) != 1 || got[0].Op != "CMult" || got[0].Level != b.Level || got[0].Err != err {
		t.Fatalf("sink saw %+v, want the one failed CMult at level %d", got, b.Level)
	}

	ev.NegInto(NewCiphertext(gc.params, a.Level), a)
	if _, err := ev.TryNegInto(NewCiphertext(gc.params, a.Level), nil); !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("TryNegInto(nil operand) = %v, want ErrInvalidInput", err)
	}
	if got := log.all(); len(got) != 1 {
		t.Fatalf("Neg reported %+v: it is observed on neither outcome", got[1:])
	}
}

package ckks

import (
	"math/rand"
	"testing"

	"poseidon/internal/trace"
)

// Zero-allocation gates for the steady-state loop the arena exists for: a
// serial evaluator running destination-passing ops at a fixed level must
// touch the Go heap zero times per op. testing.AllocsPerRun runs each op
// once as warm-up (lazy pool growth and NTT Galois permutation tables both
// land there) and then demands exact zero.
//
// These gates are the PR's contract. If a change reintroduces a per-op
// allocation — a closure capturing loop state, a slice header escaping, a
// forgotten scratch Get without a pooled Put — this test names the op.

type allocFixture struct {
	params *Parameters
	ev     *Evaluator
	swk    *SwitchingKey
	ct1    *Ciphertext
	ct2    *Ciphertext
	pt     *Plaintext
}

// newAllocFixture builds a serial (Workers: 1) evaluator with all key
// material, two ciphertexts, and a plaintext at the top level.
func newAllocFixture(t testing.TB) *allocFixture {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	sk2 := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1}, true)
	swk := kgen.genSwitchingKey(sk.Value.Q, sk2, params.MaxLevel())
	ev := NewEvaluator(params, rlk, rtk)

	rng := rand.New(rand.NewSource(17))
	enc := NewEncoder(params)
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 18)
	level := params.MaxLevel()
	ct1 := encr.Encrypt(enc.Encode(randomComplex(rng, params.Slots, 1.0), level, params.Scale))
	ct2 := encr.Encrypt(enc.Encode(randomComplex(rng, params.Slots, 1.0), level, params.Scale))
	pt := enc.Encode(randomComplex(rng, params.Slots, 1.0), level, params.Scale)
	return &allocFixture{params: params, ev: ev, swk: swk, ct1: ct1, ct2: ct2, pt: pt}
}

// TestZeroAllocSteadyState gates every destination-passing op at 0 heap
// allocations per run on a serial evaluator at fixed level — the panicking
// and the error-returning surface alike: both are exec, whose per-call record
// is pooled.
func TestZeroAllocSteadyState(t *testing.T) {
	fx := newAllocFixture(t)
	ev, params := fx.ev, fx.params
	level := params.MaxLevel()

	out := NewCiphertext(params, level)
	outLow := NewCiphertext(params, level-1)
	mulIn := ev.MulPlain(fx.ct1, fx.pt) // fixed higher-scale input for RescaleInto

	cases := []struct {
		name string
		f    func()
	}{
		{"AddInto", func() { ev.AddInto(out, fx.ct1, fx.ct2) }},
		{"SubInto", func() { ev.SubInto(out, fx.ct1, fx.ct2) }},
		{"NegInto", func() { ev.NegInto(out, fx.ct1) }},
		{"AddPlainInto", func() { ev.AddPlainInto(out, fx.ct1, fx.pt) }},
		{"MulPlainInto", func() { ev.MulPlainInto(out, fx.ct1, fx.pt) }},
		{"MulRelinInto", func() { ev.MulRelinInto(out, fx.ct1, fx.ct2) }},
		{"RescaleInto", func() { ev.RescaleInto(outLow, mulIn) }},
		{"RotateInto", func() { ev.RotateInto(out, fx.ct1, 1) }},
		{"ConjugateInto", func() { ev.ConjugateInto(out, fx.ct1) }},
		{"KeySwitchInto", func() { ev.KeySwitchInto(out, fx.ct1, fx.swk) }},
		{"TryAddInto", func() { ev.TryAddInto(out, fx.ct1, fx.ct2) }},
		{"TrySubInto", func() { ev.TrySubInto(out, fx.ct1, fx.ct2) }},
		{"TryNegInto", func() { ev.TryNegInto(out, fx.ct1) }},
		{"TryAddPlainInto", func() { ev.TryAddPlainInto(out, fx.ct1, fx.pt) }},
		{"TryMulPlainInto", func() { ev.TryMulPlainInto(out, fx.ct1, fx.pt) }},
		{"TryMulRelinInto", func() { ev.TryMulRelinInto(out, fx.ct1, fx.ct2) }},
		{"TryRescaleInto", func() { ev.TryRescaleInto(outLow, mulIn) }},
		{"TryRotateInto", func() { ev.TryRotateInto(out, fx.ct1, 1) }},
		{"TryConjugateInto", func() { ev.TryConjugateInto(out, fx.ct1) }},
		{"TryKeySwitchInto", func() { ev.TryKeySwitchInto(out, fx.ct1, fx.swk) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(10, c.f); allocs != 0 {
				t.Errorf("%s: %v allocs/op, want 0", c.name, allocs)
			}
		})
	}
}

// TestZeroAllocChain gates the composed fixed-level loop: multiply-
// relinearize, rescale, rotate, accumulate — all in pre-created containers
// (with observers installed: the root package's TestZeroAllocChainObserved).
func TestZeroAllocChain(t *testing.T) {
	fx := newAllocFixture(t)
	ev, params := fx.ev, fx.params
	level := params.MaxLevel()

	prod := NewCiphertext(params, level)
	dropped := NewCiphertext(params, level-1)
	rot := NewCiphertext(params, level-1)
	acc := NewCiphertext(params, level-1)
	chain := func() {
		ev.MulRelinInto(prod, fx.ct1, fx.ct2)
		ev.RescaleInto(dropped, prod)
		ev.RotateInto(rot, dropped, 1)
		ev.AddInto(acc, dropped, rot)
	}
	if allocs := testing.AllocsPerRun(10, chain); allocs != 0 {
		t.Errorf("MulRelin+Rescale+Rotate+Add chain: %v allocs/op, want 0", allocs)
	}
}

// TestArenaSteadyState checks the arena-level view of the same property:
// after warm-up, repeated ops are all recycles — no new arena slabs
// (Misses, BytesAllocated frozen) and no leaks (BytesInUse returns to its
// pre-op value).
func TestArenaSteadyState(t *testing.T) {
	fx := newAllocFixture(t)
	ev, params := fx.ev, fx.params
	out := NewCiphertext(params, params.MaxLevel())

	ev.MulRelinInto(out, fx.ct1, fx.ct2) // warm-up populates the free lists
	before := params.ArenaStats()
	for i := 0; i < 8; i++ {
		ev.MulRelinInto(out, fx.ct1, fx.ct2)
		ev.RotateInto(out, fx.ct1, 1)
		ev.KeySwitchInto(out, fx.ct1, fx.swk)
	}
	after := params.ArenaStats()
	if after.Misses != before.Misses {
		t.Errorf("arena misses grew %d → %d in steady state", before.Misses, after.Misses)
	}
	if after.BytesAllocated != before.BytesAllocated {
		t.Errorf("arena footprint grew %d → %d bytes in steady state", before.BytesAllocated, after.BytesAllocated)
	}
	if after.BytesInUse != before.BytesInUse {
		t.Errorf("arena leak: BytesInUse %d → %d", before.BytesInUse, after.BytesInUse)
	}
}

// TestHoistedDigitsInArena: the keyswitch digit matrices are arena scratch
// like every other buffer. A live Hoisted at level l holds exactly Digits(l)
// full-width (|Q|+|P|)-limb polys of the parameter set's one arena, Release
// hands them back, and a direct checkout from Arena() is counted once.
func TestHoistedDigitsInArena(t *testing.T) {
	fx := newAllocFixture(t)
	ev, params := fx.ev, fx.params
	full := uint64(len(params.Q)+len(params.P)) * uint64(params.N) * 8
	for _, level := range []int{params.MaxLevel(), 1} {
		ct := ev.DropLevel(fx.ct1, level)
		base := params.ArenaStats().BytesInUse
		h := ev.Hoist(ct)
		want := base + uint64(params.Digits(level))*full
		if got := params.ArenaStats().BytesInUse; got != want {
			t.Errorf("level %d: live Hoisted: BytesInUse %d, want %d (baseline %d + %d digits × %d B)",
				level, got, want, base, params.Digits(level), full)
		}
		h.Rotate(1)
		if got := params.ArenaStats().BytesInUse; got != want {
			t.Errorf("level %d: after a hoisted rotation: BytesInUse %d, want %d", level, got, want)
		}
		h.Release()
		if got := params.ArenaStats().BytesInUse; got != base {
			t.Errorf("level %d: after Release: BytesInUse %d, want the baseline %d", level, got, base)
		}
	}

	base := params.ArenaStats()
	p := params.Arena().GetDirty(1)
	got := params.ArenaStats()
	if got.Gets-base.Gets != 1 || got.BytesInUse-base.BytesInUse != uint64(params.N)*8 {
		t.Errorf("one 1-limb checkout moved Gets by %d and BytesInUse by %d, want 1 and %d",
			got.Gets-base.Gets, got.BytesInUse-base.BytesInUse, params.N*8)
	}
	params.Arena().Put(p)
}

// arenaAtPhase is a sink that reads the arena's BytesInUse when the linear
// transform reports the given engine phase — the working set the engine
// holds at that point.
type arenaAtPhase struct {
	params *Parameters
	phase  string
	inUse  uint64
	seen   int
}

func (s *arenaAtPhase) ObserveOp(e trace.OpEvent) {
	if e.Op == "LinTrans" && e.Phase == s.phase {
		s.inUse = s.params.ArenaStats().BytesInUse
		s.seen++
	}
}

// TestLinearTransformWorkingSet pins the transform's working set at its baby
// phase to the exact bytes the plan needs: the hoisted digits (Digits(l)
// full-width matrices), the P·ct lift (two Q_l polys), the output
// accumulator and one per baby step (ext1-row pairs), and — only when a
// group is rotated — the giant step's staging pair, its Q_l c1 and its
// digits. A j = 0-only plan draws no giant-step scratch.
func TestLinearTransformWorkingSet(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := params.Slots
	rng := rand.New(rand.NewSource(73))
	enc := NewEncoder(params)
	shapes := []struct {
		name  string
		diags []int
	}{
		{"j=0 only", []int{0, 1, 2, 3}},
		{"giant steps", []int{0, 1, 2, 9, 17}},
	}
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rtk := kgen.GenRotationKeys(sk, []int{1, 2, 3, 8, 16}, false)
	ev := NewEvaluator(params, nil, rtk)
	ct := NewEncryptor(params, kgen.GenPublicKey(sk), 29).Encrypt(enc.Encode(randomComplex(rng, n, 1.0), params.MaxLevel(), params.Scale))
	sink := &arenaAtPhase{params: params, phase: "baby"}
	ev.SetObserver(sink)

	row := uint64(params.N) * 8
	full := uint64(len(params.Q) + len(params.P))
	for _, sh := range shapes {
		name := sh.name
		for _, level := range []int{params.MaxLevel(), 2} {
			lt, err := NewLinearTransformBSGS(enc, ltMatFromDiags(n, ltRandDiags(rng, n, sh.diags)), level, params.Scale, 8)
			if err != nil {
				t.Fatal(err)
			}
			rotated := lt.groups[len(lt.groups)-1].j != 0
			if rotated != (name == "giant steps") {
				t.Fatalf("%s: groups %v", name, lt.groups)
			}
			q, e := uint64(level+1), uint64(level+1+params.Alpha())
			d := uint64(params.Digits(level))
			want := d*full + 2*q + 2*e + uint64(len(lt.babySteps))*2*e
			if rotated {
				want += 2*e + q + d*full
			}
			want *= row

			out := NewCiphertext(params, level)
			base := params.ArenaStats().BytesInUse
			sink.seen = 0
			ev.EvaluateLinearTransformInto(out, ct, lt)
			if sink.seen != 1 {
				t.Fatalf("%s level %d: %d baby phase events, want 1", name, level, sink.seen)
			}
			if got := sink.inUse - base; got != want {
				t.Errorf("%s level %d: working set at the baby phase %d B, want %d B (%d rows of %d B)",
					name, level, got, want, want/row, row)
			}
			if got := params.ArenaStats().BytesInUse; got != base {
				t.Errorf("%s level %d: BytesInUse %d after the transform, want the baseline %d", name, level, got, base)
			}
		}
	}
}

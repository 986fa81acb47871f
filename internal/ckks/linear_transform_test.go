package ckks

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Differential and structural suite for the double-hoisted linear-transform
// engine (double_hoist.go). The per-rotation schedule is the semantic
// reference: the double-hoisted result is decrypt-equivalent but not
// bit-identical (ModDown rounding is regrouped), so cross-path checks go
// through decryption while within-path checks (dirty/aliased destinations)
// demand exact coefficient equality.

// ltMatFromDiags assembles a row-major n×n matrix from its generalized
// diagonals: m[r][(r+d)%n] = diags[d][r].
func ltMatFromDiags(n int, diags map[int][]complex128) [][]complex128 {
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
		for d, v := range diags {
			m[r][(r+d)%n] = v[r]
		}
	}
	return m
}

// ltMatVec is the plaintext ground truth M·z.
func ltMatVec(m [][]complex128, z []complex128) []complex128 {
	out := make([]complex128, len(m))
	for r := range m {
		for c, v := range m[r] {
			out[r] += v * z[c]
		}
	}
	return out
}

// ltRandDiags fills the listed diagonal indices with deterministic random
// values bounded away from the encoder's zero threshold.
func ltRandDiags(rng *rand.Rand, n int, ds []int) map[int][]complex128 {
	diags := map[int][]complex128{}
	for _, d := range ds {
		v := make([]complex128, n)
		for i := range v {
			v[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		diags[d] = v
	}
	return diags
}

// ltFixture is the keyed setup for one transform: keys cover exactly the
// plan's rotations, the evaluator is fresh, and z/ct are the test vector.
type ltFixture struct {
	enc  *Encoder
	sk   *SecretKey
	ev   *Evaluator
	decr *Decryptor
	z    []complex128
	ct   *Ciphertext
}

func newLtFixture(t testing.TB, params *Parameters, lt *LinearTransform, enc *Encoder, rng *rand.Rand) *ltFixture {
	t.Helper()
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, lt.Rotations(), false)
	encr := NewEncryptor(params, kgen.GenPublicKey(sk), 29)
	z := randomComplex(rng, params.Slots, 1.0)
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))
	return &ltFixture{
		enc:  enc,
		sk:   sk,
		ev:   NewEvaluator(params, rlk, rtk),
		decr: NewDecryptor(params, sk),
		z:    z,
		ct:   ct,
	}
}

// TestDoubleHoistedLinearTransform runs a dense random matrix on both
// differential parameter sets and checks, per set:
//   - double-hoisted output is bit-identical across dirty or input-aliased
//     destinations;
//   - both evaluation paths decrypt to the plaintext ground truth M·z.
func TestDoubleHoistedLinearTransform(t *testing.T) {
	for name, params := range diffParamSets(t) {
		t.Run(name, func(t *testing.T) {
			n := params.Slots
			rng := rand.New(rand.NewSource(31))
			m := make([][]complex128, n)
			for r := range m {
				m[r] = randomComplex(rng, n, 1.0)
			}
			enc := NewEncoder(params)
			lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
			if err != nil {
				t.Fatal(err)
			}
			fx := newLtFixture(t, params, lt, enc, rng)
			ev := fx.ev

			out := ev.EvaluateLinearTransform(fx.ct, lt)

			// A destination full of stale coefficients must be fully
			// overwritten, including the implicit zero rows.
			dirty := out.CopyNew()
			requireCtEqual(t, ev.EvaluateLinearTransformInto(dirty, fx.ct, lt), out,
				"double-hoisted into dirty destination")

			// dst aliasing ct: the input is consumed before dst is written.
			alias := fx.ct.CopyNew()
			requireCtEqual(t, ev.EvaluateLinearTransformInto(alias, alias, lt), out,
				"double-hoisted into aliased destination")

			expect := ltMatVec(m, fx.z)
			base := ev.EvaluateLinearTransformPerRotation(fx.ct, lt)
			assertClose(t, enc.Decode(fx.decr.Decrypt(ev.Rescale(out))), expect, 2e-2,
				"double-hoisted decrypts to M·z")
			assertClose(t, enc.Decode(fx.decr.Decrypt(ev.Rescale(base))), expect, 2e-2,
				"per-rotation decrypts to M·z")
		})
	}
}

// TestLinearTransformChain evaluates a dense then a banded transform
// back-to-back (rescaling between), decrypt-validating against M2·(M1·z) —
// the composed-pipeline shape a bootstrapping slot-to-coeff pass uses.
func TestLinearTransformChain(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	n := params.Slots
	rng := rand.New(rand.NewSource(47))
	enc := NewEncoder(params)

	m1 := make([][]complex128, n)
	for r := range m1 {
		m1[r] = randomComplex(rng, n, 1.0)
	}
	// Wrap-around band: main diagonal, two superdiagonals, one "sub".
	m2 := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 1, 2, n - 1}))

	lt1, err := NewLinearTransform(enc, m1, params.MaxLevel(), params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	lt2, err := NewLinearTransform(enc, m2, params.MaxLevel()-1, params.Scale)
	if err != nil {
		t.Fatal(err)
	}

	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	steps := append(lt1.Rotations(), lt2.Rotations()...)
	rtk := kgen.GenRotationKeys(sk, steps, false)
	ev := NewEvaluator(params, rlk, rtk)
	encr := NewEncryptor(params, kgen.GenPublicKey(sk), 29)
	decr := NewDecryptor(params, sk)

	z := randomComplex(rng, n, 1.0)
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))

	y1 := ev.Rescale(ev.EvaluateLinearTransform(ct, lt1))
	y2 := ev.Rescale(ev.EvaluateLinearTransform(y1, lt2))

	expect := ltMatVec(m2, ltMatVec(m1, z))
	assertClose(t, enc.Decode(decr.Decrypt(y2)), expect, 5e-2, "chained transforms decrypt to M2·M1·z")
}

// TestLinearTransformStats pins the engine's work accounting to the plan
// shape: the double-hoisted path spends one ModDown per nonzero giant-step
// group plus two to close, against the per-rotation baseline's two per
// keyswitch — same number of key-switch MAC pipelines on both paths.
func TestLinearTransformStats(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	n := params.Slots
	rng := rand.New(rand.NewSource(53))
	enc := NewEncoder(params)

	// diags {0,1,2,17,33} at n1=16: babies {1,2}, groups j ∈ {0,16,32}.
	ds := []int{0, 1, 2, 17, 33}
	m := ltMatFromDiags(n, ltRandDiags(rng, n, ds))
	lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, 16)
	if err != nil {
		t.Fatal(err)
	}
	fx := newLtFixture(t, params, lt, enc, rng)

	nzGroups := 0
	for _, g := range lt.groups {
		if g.j != 0 {
			nzGroups++
		}
	}
	if got, want := len(lt.babySteps), 2; got != want {
		t.Fatalf("baby steps = %d, want %d", got, want)
	}
	if got, want := len(lt.groups), 3; got != want {
		t.Fatalf("groups = %d, want %d", got, want)
	}

	_, dh := fx.ev.EvaluateLinearTransformWithStats(fx.ct, lt)
	_, pr := fx.ev.EvaluateLinearTransformPerRotationWithStats(fx.ct, lt)

	if dh.BabySteps != len(lt.babySteps) || dh.GiantSteps != len(lt.groups) {
		t.Errorf("DH step counts (%d, %d) disagree with the transform (%d, %d)",
			dh.BabySteps, dh.GiantSteps, len(lt.babySteps), len(lt.groups))
	}
	if want := nzGroups + 2; dh.ModDownSweeps != want {
		t.Errorf("DH ModDown sweeps = %d, want %d (one per nonzero group + two to close)", dh.ModDownSweeps, want)
	}
	if want := 2 * (len(lt.babySteps) + nzGroups); pr.ModDownSweeps != want {
		t.Errorf("per-rotation ModDown sweeps = %d, want %d", pr.ModDownSweeps, want)
	}
	if dh.ModDownSweeps >= pr.ModDownSweeps {
		t.Errorf("DH ModDown sweeps (%d) not below baseline (%d)", dh.ModDownSweeps, pr.ModDownSweeps)
	}
	if dh.KeySwitches != pr.KeySwitches {
		t.Errorf("key-switch MAC count differs: DH %d, per-rotation %d", dh.KeySwitches, pr.KeySwitches)
	}
	if dh.PlainMACs != pr.PlainMACs || dh.PlainMACs != len(ds) {
		t.Errorf("plain MACs: DH %d, per-rotation %d, want %d", dh.PlainMACs, pr.PlainMACs, len(ds))
	}
}

// TestLinearTransformLevels checks the level plumbing: a ciphertext above
// the transform level is dropped transparently, one below panics.
func TestLinearTransformLevels(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	n := params.Slots
	rng := rand.New(rand.NewSource(59))
	enc := NewEncoder(params)

	m := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 3, 17}))
	level := params.MaxLevel() - 1
	lt, err := NewLinearTransform(enc, m, level, params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	fx := newLtFixture(t, params, lt, enc, rng) // ct at MaxLevel > lt.Level

	got := fx.ev.EvaluateLinearTransform(fx.ct, lt)
	if got.Level != level {
		t.Fatalf("result at level %d, want %d", got.Level, level)
	}
	assertClose(t, fx.enc.Decode(fx.decr.Decrypt(fx.ev.Rescale(got))), ltMatVec(m, fx.z), 1e-2,
		"auto-dropped input decrypts to M·z")

	// A ciphertext below the transform's level is a usage error, and the
	// recovery boundaries must be able to tell: the panic value is a typed
	// *OpError naming LinTrans and ErrLevelExhausted, which recoverOp passes
	// through — a bare string would come out as ErrInternal, "a bug".
	low := fx.ev.DropLevel(fx.ct, level-1)
	for name, eval := range map[string]func(){
		"double-hoisted": func() { fx.ev.EvaluateLinearTransform(low, lt) },
		"per-rotation":   func() { fx.ev.EvaluateLinearTransformPerRotation(low, lt) },
	} {
		var err error
		func() {
			defer recoverOp("caller", &low.Level, &err)
			eval()
		}()
		var oe *OpError
		if !errors.As(err, &oe) || oe.Op != "LinTrans" || oe.Level != low.Level {
			t.Errorf("%s at level above the ciphertext: %v, want a LinTrans *OpError at level %d", name, err, low.Level)
		}
		if !errors.Is(err, ErrLevelExhausted) || errors.Is(err, ErrInternal) {
			t.Errorf("%s at level above the ciphertext: %v, want ErrLevelExhausted", name, err)
		}
	}
}

// TestLinearTransformZeroMatrix: the all-zero matrix has an empty plan, no
// rotation requirements, and evaluates to an exact zero ciphertext at the
// product scale.
func TestLinearTransformZeroMatrix(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	n := params.Slots
	enc := NewEncoder(params)
	m := make([][]complex128, n)
	for r := range m {
		m[r] = make([]complex128, n)
	}
	lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(lt.Rotations()) != 0 || len(lt.GaloisElements()) != 0 {
		t.Fatalf("zero matrix wants rotations %v, galois %v", lt.Rotations(), lt.GaloisElements())
	}
	rng := rand.New(rand.NewSource(61))
	fx := newLtFixture(t, params, lt, enc, rng)
	got := fx.ev.EvaluateLinearTransform(fx.ct, lt)
	if got.Scale != fx.ct.Scale*lt.Scale {
		t.Fatalf("zero result scale %v, want %v", got.Scale, fx.ct.Scale*lt.Scale)
	}
	for i := range got.C0.Coeffs {
		for j := range got.C0.Coeffs[i] {
			if got.C0.Coeffs[i][j] != 0 || got.C1.Coeffs[i][j] != 0 {
				t.Fatalf("zero-matrix result has nonzero coefficient at limb %d", i)
			}
		}
	}
}

// TestLinearTransformPlanDeterministic: two transforms built from the same
// matrix produce identical schedules — same rotation order, group order, and
// Galois layout.
func TestLinearTransformPlanDeterministic(t *testing.T) {
	params := diffParamSets(t)["LogN8-L2"]
	n := params.Slots
	rng := rand.New(rand.NewSource(67))
	enc := NewEncoder(params)
	m := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 1, 5, 17, 18, 33, 100, n - 1}))

	build := func() *LinearTransform {
		lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
		if err != nil {
			t.Fatal(err)
		}
		return lt
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Rotations(), b.Rotations()) {
		t.Errorf("rotations differ across builds: %v vs %v", a.Rotations(), b.Rotations())
	}
	if !reflect.DeepEqual(a.GaloisElements(), b.GaloisElements()) {
		t.Errorf("galois elements differ across builds")
	}
	if !reflect.DeepEqual(a.babySteps, b.babySteps) {
		t.Errorf("baby steps differ across builds: %v vs %v", a.babySteps, b.babySteps)
	}
	if len(a.groups) != len(b.groups) {
		t.Fatalf("group counts differ: %d vs %d", len(a.groups), len(b.groups))
	}
	for i := range a.groups {
		if a.groups[i].j != b.groups[i].j || len(a.groups[i].terms) != len(b.groups[i].terms) {
			t.Errorf("group %d differs across builds", i)
		}
	}
}

// TestLinearTransformZeroAlloc gates the plan-based destination-passing
// evaluation at zero heap allocations per call on a serial evaluator: the
// engine state, wide accumulators, extended-basis scratch and permutation
// staging must all come from the parameters' pools.
func TestLinearTransformZeroAlloc(t *testing.T) {
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
	rng := rand.New(rand.NewSource(71))
	enc := NewEncoder(params)
	m := ltMatFromDiags(n, ltRandDiags(rng, n, []int{0, 1, 2, 17, 18, 33}))
	lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, 16)
	if err != nil {
		t.Fatal(err)
	}
	fx := newLtFixture(t, params, lt, enc, rng)
	out := NewCiphertext(params, lt.Level)

	// Warm-up builds the plan, grows the pools and memoizes the Galois
	// permutation tables; steady state must then be allocation-free.
	fx.ev.EvaluateLinearTransformInto(out, fx.ct, lt)
	if n := testing.AllocsPerRun(10, func() {
		fx.ev.EvaluateLinearTransformInto(out, fx.ct, lt)
	}); n != 0 {
		t.Errorf("EvaluateLinearTransformInto allocates %.0f times per run, want 0", n)
	}
}

// FuzzLinearTransformPlan drives plan construction over random sparsity
// patterns and baby-step widths and checks the structural invariants every
// consumer (both evaluation paths, key provisioning, the arch model)
// relies on: sorted deterministic ordering, group/term consistency, and
// exact accounting of the nonzero diagonals — and that the width the
// planner picks for the same pattern has the least modeled cost of all
// power-of-two widths, with the model's key count matching the real plan.
func FuzzLinearTransformPlan(f *testing.F) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		f.Fatal(err)
	}
	n := params.Slots
	enc := NewEncoder(params)

	f.Add(uint8(4), []byte{0, 1, 2, 17, 18})
	f.Add(uint8(0), []byte{})
	f.Add(uint8(7), []byte{255, 3, 129})
	f.Add(uint8(9), []byte{0})

	f.Fuzz(func(t *testing.T, n1Exp uint8, pattern []byte) {
		if len(pattern) > 24 {
			pattern = pattern[:24] // bound encoding work per input
		}
		diagSet := map[int]bool{}
		ds := []int(nil)
		for _, b := range pattern {
			d := int(b) % n
			if !diagSet[d] {
				diagSet[d] = true
				ds = append(ds, d)
			}
		}
		m := ltMatFromDiags(n, ltRandDiags(rand.New(rand.NewSource(int64(len(ds)))), n, ds))

		logN1 := int(n1Exp) % 8 // n = 128 slots: n1 ∈ {1, 2, …, 128}
		n1 := 1 << logN1
		lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, n1)
		if err != nil {
			t.Fatalf("construction rejected valid width %d: %v", n1, err)
		}

		for k := 1; k < len(lt.rotations); k++ {
			if lt.rotations[k-1] >= lt.rotations[k] {
				t.Fatalf("rotations not strictly ascending: %v", lt.rotations)
			}
		}
		for k := 1; k < len(lt.galois); k++ {
			if lt.galois[k-1] >= lt.galois[k] {
				t.Fatalf("galois elements not strictly ascending: %v", lt.galois)
			}
		}
		for _, g := range lt.galois {
			if g == 1 {
				t.Fatal("identity Galois element in key requirement set")
			}
		}
		seen := map[int]bool{}
		for k, s := range lt.babySteps {
			if s <= 0 || s >= n1 || seen[s] {
				t.Fatalf("bad baby step %d (n1=%d) in %v", s, n1, lt.babySteps)
			}
			seen[s] = true
			if k > 0 && lt.babySteps[k-1] >= s {
				t.Fatalf("baby steps not sorted: %v", lt.babySteps)
			}
		}
		terms := 0
		for gi, g := range lt.groups {
			if g.j%n1 != 0 || g.j < 0 || g.j >= n {
				t.Fatalf("group %d has invalid outer step %d", gi, g.j)
			}
			if gi > 0 && lt.groups[gi-1].j >= g.j {
				t.Fatal("groups not sorted by outer step")
			}
			if len(g.terms) == 0 {
				t.Fatalf("group j=%d is empty", g.j)
			}
			for ti, term := range g.terms {
				if ti > 0 && g.terms[ti-1].i >= term.i {
					t.Fatalf("group j=%d terms not sorted by inner step", g.j)
				}
				if term.i < 0 || term.i >= n1 {
					t.Fatalf("inner step %d out of range for n1=%d", term.i, n1)
				}
				if term.i == 0 {
					if term.babyIdx != -1 {
						t.Fatalf("identity term carries baby index %d", term.babyIdx)
					}
				} else if term.babyIdx < 0 || term.babyIdx >= len(lt.babySteps) || lt.babySteps[term.babyIdx] != term.i {
					t.Fatalf("term (j=%d, i=%d) baby index %d inconsistent with %v", g.j, term.i, term.babyIdx, lt.babySteps)
				}
				if term.diag == nil || len(term.diag.Coeffs) != lt.Level+1+params.Alpha() || !term.diag.IsNTT {
					t.Fatalf("term (j=%d, i=%d) missing its extended-basis diagonal", g.j, term.i)
				}
				if !diagSet[g.j+term.i] {
					t.Fatalf("plan invented diagonal %d", g.j+term.i)
				}
				terms++
			}
		}
		if terms != len(ds) {
			t.Fatalf("plan covers %d diagonals, matrix has %d", terms, len(ds))
		}

		sh := params.ltShape(params.MaxLevel())
		sort.Ints(ds)
		if _, keys := sh.splitCost(ds, n1); keys != len(lt.galois) {
			t.Fatalf("n1=%d: model counts %d rotation keys, plan needs %d", n1, keys, len(lt.galois))
		}
		auto := sh.planSplit(ds, n)
		autoRows, autoKeys := sh.splitCost(ds, auto)
		for w := 1; w <= n; w <<= 1 {
			if rows, keys := sh.splitCost(ds, w); rows < autoRows || (rows == autoRows && keys < autoKeys) {
				t.Fatalf("planner chose n1=%d (%d rows, %d keys) but n1=%d costs %d rows, %d keys",
					auto, autoRows, autoKeys, w, rows, keys)
			}
		}
	})
}

package ckks

import (
	"math/rand"
	"testing"
)

// Table tests of the split planner (ltShape.planSplit / splitCost) and of
// its tie to the engine: the keys the model counts are the key-switches the
// evaluation reports.

func seqDiags(lo, hi int) []int {
	ds := make([]int, 0, hi-lo)
	for d := lo; d < hi; d++ {
		ds = append(ds, d)
	}
	return ds
}

// p13Shape is the keyswitch geometry of the benchmark's P13 rung at its top
// level, derived from a real parameter set so Digits/Alpha are not typed in.
func p13Shape(t *testing.T) ltShape {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN: 13, LogQ: []int{55, 45, 45, 45, 45, 45}, LogP: []int{58, 58}, LogScale: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	sh := params.ltShape(params.MaxLevel())
	if want := (ltShape{digits: 3, ext1: 8, qLimbs: 6, nttPasses: 5}); sh != want {
		t.Fatalf("P13 shape = %+v, want %+v", sh, want)
	}
	return sh
}

func TestPlanSplitTable(t *testing.T) {
	sh := p13Shape(t)
	const n = 4096

	// The benchmark's 128-diagonal band: √n = 64 buys 63 baby replays to
	// save a single giant step; the planner trades some back.
	n1 := sh.planSplit(seqDiags(0, 128), n)
	if _, keys := sh.splitCost(seqDiags(0, 128), n1); keys > 34 {
		t.Errorf("128-band: planner chose n1=%d needing %d key-switches, want ≤ 34", n1, keys)
	}

	// Dense: giant steps cost transforms and baby replays do not, so the
	// optimum sits right of √n (the measured sweep bottoms out at 128).
	if n1 := sh.planSplit(seqDiags(0, n), n); n1 < 64 {
		t.Errorf("dense: planner chose n1=%d, want ≥ 64", n1)
	}

	// A single diagonal is one rotation whichever way it is split.
	for _, d := range []int{0, 1, 5, 64, 4095} {
		n1 := sh.planSplit([]int{d}, n)
		_, keys := sh.splitCost([]int{d}, n1)
		if want := min(d, 1); keys != want {
			t.Errorf("single diagonal %d: n1=%d needs %d keys, want %d", d, n1, keys, want)
		}
	}

	// Nothing to plan: any width is valid, the planner returns the first.
	if n1 := sh.planSplit(nil, n); n1 != 1 {
		t.Errorf("all-zero matrix: planner chose n1=%d, want 1", n1)
	}
}

// TestPlannedSplitDrivesEngine builds real transforms: the automatic width
// is the planner's, an explicit width is honoured untouched, and on both the
// modeled key count equals the key-switches the double-hoisted evaluation
// counts and the rotation keys the plan asks for.
func TestPlannedSplitDrivesEngine(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	n := params.Slots
	rng := rand.New(rand.NewSource(107))
	enc := NewEncoder(params)
	ds := seqDiags(0, 24)
	m := ltMatFromDiags(n, ltRandDiags(rng, n, ds))
	sh := params.ltShape(params.MaxLevel())

	for _, pinned := range []int{0, 16, 64} {
		lt, err := NewLinearTransformBSGS(enc, m, params.MaxLevel(), params.Scale, pinned)
		if err != nil {
			t.Fatal(err)
		}
		want := pinned
		if pinned == 0 {
			want = sh.planSplit(ds, n)
		}
		if lt.N1 != want {
			t.Fatalf("requested n1=%d: transform built at %d, want %d", pinned, lt.N1, want)
		}
		_, keys := sh.splitCost(ds, lt.N1)
		if got := len(lt.Plan().GaloisElements()); got != keys {
			t.Errorf("n1=%d: plan needs %d rotation keys, model counts %d", lt.N1, got, keys)
		}
		fx := newLtFixture(t, params, lt, enc, rng)
		out, stats := fx.ev.EvaluateLinearTransformWithStats(fx.ct, lt)
		if stats.KeySwitches != keys {
			t.Errorf("n1=%d: engine ran %d key-switches, model counts %d", lt.N1, stats.KeySwitches, keys)
		}
		assertClose(t, enc.Decode(fx.decr.Decrypt(fx.ev.Rescale(out))), ltMatVec(m, fx.z), 2e-2,
			"planned transform decrypts to M·z")
	}
}

// TestLinearTransformParallelAllocBound: at two workers a transform used to
// pay a pool dispatch (goroutines, closures, range views) per digit per
// stage per rotation — 1283 allocations on this shape at the parent commit.
// The limb-major stages dispatch once per phase; hold them to a quarter.
func TestLinearTransformParallelAllocBound(t *testing.T) {
	const parentAllocs = 1283
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{55, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := params.Slots
	rng := rand.New(rand.NewSource(109))
	enc := NewEncoder(params)
	m := ltMatFromDiags(n, ltRandDiags(rng, n, seqDiags(0, 32)))
	lt, err := NewLinearTransform(enc, m, params.MaxLevel(), params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	fx := newLtFixture(t, params, lt, enc, rng)
	out := NewCiphertext(params, lt.Level)
	fx.ev.EvaluateLinearTransformInto(out, fx.ct, lt)
	got := testing.AllocsPerRun(10, func() {
		fx.ev.EvaluateLinearTransformInto(out, fx.ct, lt)
	})
	if got > parentAllocs/4 {
		t.Errorf("EvaluateLinearTransformInto at 2 workers allocates %.0f times per run, want ≤ %d (a quarter of %d)",
			got, parentAllocs/4, parentAllocs)
	}
}

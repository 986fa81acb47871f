package ntt

import (
	"math/rand"
	"testing"
)

// The fused plans must be zero-allocation on the hot path: all twiddle and
// pass state is precomputed at plan construction, the generic kernel's
// block buffer lives on the stack, and the specialized kernels touch only
// their operand slices. This is the ntt-level half of the evaluator's
// zero-alloc chain gate. The 45-bit table runs the IFMA52 lanes where the
// CPU has them, the 59-bit one the DQ lanes (or the Go bodies without
// AVX-512).
func TestFusedZeroAlloc(t *testing.T) {
	for _, bitSize := range []int{45, 59} {
		tab := mustTable(t, 1<<10, bitSize)
		t.Logf("%d-bit prime: body %v", bitSize, tab.body)
		a := randomPoly(rand.New(rand.NewSource(3)), tab.N, tab.Mod.Q)
		for k := 1; k <= 6; k++ {
			fwd, err := NewFusedPlan(tab, k)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := NewInverseFusedPlan(tab, k)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up transform pair, then measure.
			fwd.Forward(a)
			inv.Inverse(a)
			if allocs := testing.AllocsPerRun(10, func() { fwd.Forward(a) }); allocs != 0 {
				t.Errorf("bits=%d k=%d: Forward allocates %.1f/op, want 0", bitSize, k, allocs)
			}
			if allocs := testing.AllocsPerRun(10, func() { inv.Inverse(a) }); allocs != 0 {
				t.Errorf("bits=%d k=%d: Inverse allocates %.1f/op, want 0", bitSize, k, allocs)
			}
		}
	}
}

// FuzzFusedNTTRoundTrip drives the fused kernels with fuzzer-chosen
// coefficients and fusion degree: the fused forward must match the strict
// reference bit-for-bit, and fused forward → fused inverse must reproduce the
// input exactly (the N^-1 fold undoing the transform). The 50-bit table puts
// 4q right under 2^52, the edge of the IFMA52 lanes.
func FuzzFusedNTTRoundTrip(f *testing.F) {
	tab, err := NewTable(256, 7681)
	if err != nil {
		f.Fatal(err)
	}
	big, err := NewTable(256, 1152921504606830593)
	if err != nil {
		f.Fatal(err)
	}
	edge := mustTable(f, 256, 50)
	f.Add(uint64(1), uint8(3))
	f.Add(uint64(42), uint8(1))
	f.Add(uint64(7), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, kRaw uint8) {
		k := int(kRaw)%6 + 1
		for _, tb := range []*Table{tab, edge, big} {
			fwd, err := NewFusedPlan(tb, k)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := NewInverseFusedPlan(tb, k)
			if err != nil {
				t.Fatal(err)
			}
			a := randomPoly(rand.New(rand.NewSource(int64(seed))), tb.N, tb.Mod.Q)
			orig := append([]uint64(nil), a...)

			want := append([]uint64(nil), a...)
			tb.ForwardStrict(want)
			fwd.Forward(a)
			for i := range a {
				if a[i] != want[i] {
					t.Fatalf("q=%d k=%d: fused forward differs from strict at %d", tb.Mod.Q, k, i)
				}
			}
			inv.Inverse(a)
			for i := range a {
				if a[i] != orig[i] {
					t.Fatalf("q=%d k=%d: round trip differs from input at %d", tb.Mod.Q, k, i)
				}
			}
		}
	})
}

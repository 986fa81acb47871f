package ntt

import (
	"math/rand"
	"testing"
)

// Every inverse degree, through the plan's own constructor, against the
// reference with its separate scaling pass.
func TestInverseFusedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	for _, n := range []int{8, 64, 512, 4096} {
		for _, bitSize := range []int{30, 59} {
			tab := mustTable(t, n, bitSize)
			for k := 1; k <= 6; k++ {
				plan, err := NewInverseFusedPlan(tab, k)
				if err != nil {
					t.Fatalf("NewInverseFusedPlan(k=%d): %v", k, err)
				}
				a := randomPoly(rng, n, tab.Mod.Q)
				want := append([]uint64(nil), a...)
				tab.InverseStrict(want)
				plan.Inverse(a)
				for i := range a {
					if a[i] != want[i] {
						t.Fatalf("n=%d bits=%d k=%d: fused inverse mismatch at %d",
							n, bitSize, k, i)
					}
				}
			}
		}
	}
}

func TestInverseFusedRoundTrip(t *testing.T) {
	tab := mustTable(t, 256, 45)
	fwd, err := NewFusedPlan(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := NewInverseFusedPlan(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	a := randomPoly(rng, tab.N, tab.Mod.Q)
	orig := append([]uint64(nil), a...)
	fwd.Forward(a)
	inv.Inverse(a)
	for i := range a {
		if a[i] != orig[i] {
			t.Fatalf("fused round trip mismatch at %d", i)
		}
	}
}

func TestInverseFusedErrors(t *testing.T) {
	tab := mustTable(t, 16, 30)
	if _, err := NewInverseFusedPlan(tab, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewInverseFusedPlan(tab, 7); err == nil {
		t.Error("k=7 should error")
	}
	plan, _ := NewInverseFusedPlan(tab, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch should panic")
		}
	}()
	plan.Inverse(make([]uint64, 8))
}

func TestInverseFusedPassCount(t *testing.T) {
	tab := mustTable(t, 4096, 30)
	for k := 1; k <= 6; k++ {
		plan, err := NewInverseFusedPlan(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := plan.Passes(), Iterations(tab.LogN, k); got != want {
			t.Errorf("k=%d: passes=%d want %d", k, got, want)
		}
	}
}

func TestInverseFusedReductionSavings(t *testing.T) {
	tab := mustTable(t, 1024, 30)
	rng := rand.New(rand.NewSource(52))
	a := randomPoly(rng, tab.N, tab.Mod.Q)

	plan1, _ := NewInverseFusedPlan(tab, 1)
	plan3, _ := NewInverseFusedPlan(tab, 3)
	var s1, s3 Stats
	plan1.InverseCounted(append([]uint64(nil), a...), &s1)
	plan3.InverseCounted(append([]uint64(nil), a...), &s3)
	if s3.Reductions >= s1.Reductions {
		t.Errorf("k=3 should reduce reductions: %d vs %d", s3.Reductions, s1.Reductions)
	}
}

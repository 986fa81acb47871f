package ring

import (
	"math/rand"
	"testing"

	"poseidon/internal/automorph"
)

// FuzzHFAutoParallel drives the HFAuto automorphism limb-parallel (one shared
// routing map, automorphismOver in parallel_test.go) with
// random Galois elements and coefficients and checks it against the naive
// per-element index map i ↦ i·g mod N — including the negacyclic sign
// fix-up (coefficients landing past X^N pick up a minus sign). The two
// implementations are algorithmically unrelated, so agreement here pins
// down both the HFAuto staging algebra and the pool's index distribution.
func FuzzHFAutoParallel(f *testing.F) {
	r := testRing(f, 64, 3)
	pool := NewPool(4)
	twoN := uint64(2 * r.N)

	f.Add(int64(1), uint64(1))        // identity
	f.Add(int64(2), uint64(5))        // rotation generator
	f.Add(int64(3), twoN-1)           // conjugation
	f.Add(int64(4), uint64(25))       // 5^2
	f.Add(int64(5), uint64(1<<63|39)) // large raw element

	f.Fuzz(func(t *testing.T, seed int64, gRaw uint64) {
		g := (gRaw % twoN) | 1 // odd Galois element in [1, 2N)
		rng := rand.New(rand.NewSource(seed))
		src := randPoly(r, rng, 3, false)

		got := r.NewPoly(3)
		automorphismOver(r, pool, got, src, g)

		want := r.NewPoly(3)
		for i := range want.Coeffs {
			automorph.Naive(want.Coeffs[i], src.Coeffs[i], g, r.Moduli[i])
		}

		if !got.Equal(want) {
			t.Fatalf("g=%d seed=%d: parallel HFAuto differs from naive map", g, seed)
		}

		// The serial HFAuto path must agree too (same map cache).
		serial := r.NewPoly(3)
		hfSerial(r, serial, src, g)
		if !serial.Equal(want) {
			t.Fatalf("g=%d seed=%d: serial HFAuto differs from naive map", g, seed)
		}
	})
}

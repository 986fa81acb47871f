package ring

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

var errMismatch = errors.New("ring: concurrent op result differs from serial")

// testPools covers the serial degenerate cases and genuinely concurrent
// pools, including one wider than any limb count in these tests.
func testPools() []*Pool {
	return []*Pool{nil, NewPool(1), NewPool(2), NewPool(4), NewPool(16), NewPool(100)}
}

func TestParallelMatchesSerial(t *testing.T) {
	r := testRing(t, 256, 8)
	rng := rand.New(rand.NewSource(70))

	for _, pool := range testPools() {
		a := randPoly(r, rng, 8, false)
		b := a.CopyNew()
		r.NTT(a)
		r.NTTParallel(b, pool)
		if !a.Equal(b) {
			t.Fatalf("workers=%d: NTTParallel differs from NTT", pool.Workers())
		}
		r.INTT(a)
		r.INTTParallel(b, pool)
		if !a.Equal(b) {
			t.Fatalf("workers=%d: INTTParallel differs from INTT", pool.Workers())
		}
	}
}

func TestParallelElementwiseMatchesSerial(t *testing.T) {
	r := testRing(t, 128, 6)
	rng := rand.New(rand.NewSource(71))
	a := randPoly(r, rng, 6, true)
	b := randPoly(r, rng, 6, true)
	scalars := make([]uint64, 6)
	for i := range scalars {
		scalars[i] = rng.Uint64()
	}

	want := r.NewPoly(6)
	got := r.NewPoly(6)
	for _, pool := range testPools() {
		w := pool.Workers()

		r.MulCoeffwise(want, a, b)
		r.MulCoeffwiseParallel(got, a, b, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: MulCoeffwiseParallel differs from serial", w)
		}

		r.MulCoeffwiseAdd(want, a, b)
		r.MulCoeffwiseAddParallel(got, a, b, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: MulCoeffwiseAddParallel differs from serial", w)
		}

		r.Add(want, a, b)
		r.AddParallel(got, a, b, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: AddParallel differs from serial", w)
		}

		r.Sub(want, a, b)
		r.SubParallel(got, a, b, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: SubParallel differs from serial", w)
		}

		r.Neg(want, a)
		r.NegParallel(got, a, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: NegParallel differs from serial", w)
		}

		r.MulScalarRNS(want, a, scalars)
		r.MulScalarRNSParallel(got, a, scalars, pool)
		if !got.Equal(want) {
			t.Errorf("workers=%d: MulScalarRNSParallel differs from serial", w)
		}
	}
}

func TestParallelAutomorphismMatchesSerial(t *testing.T) {
	r := testRing(t, 128, 5)
	rng := rand.New(rand.NewSource(72))
	src := randPoly(r, rng, 5, false)

	for _, g := range []uint64{1, 5, 25, uint64(2*r.N - 1), 77} {
		want := r.NewPoly(5)
		r.Automorphism(want, src, g)
		for _, pool := range testPools() {
			got := r.NewPoly(5)
			r.AutomorphismParallel(got, src, g, pool)
			if !got.Equal(want) {
				t.Errorf("g=%d workers=%d: AutomorphismParallel differs", g, pool.Workers())
			}
		}
	}

	ntt := src.CopyNew()
	r.NTT(ntt)
	for _, g := range []uint64{5, 25, uint64(2*r.N - 1)} {
		want := r.NewPoly(5)
		r.AutomorphismNTT(want, ntt, g)
		for _, pool := range testPools() {
			got := r.NewPoly(5)
			r.AutomorphismNTTParallel(got, ntt, g, pool)
			if !got.Equal(want) {
				t.Errorf("g=%d workers=%d: AutomorphismNTTParallel differs", g, pool.Workers())
			}
		}
	}
}

func TestParallelDomainPanics(t *testing.T) {
	r := testRing(t, 32, 2)
	pool := NewPool(2)
	p := r.NewPoly(2)
	p.IsNTT = true
	func() {
		defer func() {
			if recover() == nil {
				t.Error("NTTParallel on NTT-domain input should panic")
			}
		}()
		r.NTTParallel(p, pool)
	}()
	p.IsNTT = false
	func() {
		defer func() {
			if recover() == nil {
				t.Error("INTTParallel on coeff-domain input should panic")
			}
		}()
		r.INTTParallel(p, pool)
	}()
}

// TestConcurrentParallelOps exercises shared state under -race: one ring
// (shared NTT tables, HFAuto map cache, scratch pools) and one pool used by
// many goroutines at once.
func TestConcurrentParallelOps(t *testing.T) {
	r := testRing(t, 128, 6)
	pool := NewPool(4)
	rng := rand.New(rand.NewSource(73))
	src := randPoly(r, rng, 6, false)
	want := r.NewPoly(6)
	r.Automorphism(want, src, 5)

	done := make(chan error, 8)
	for goroutine := 0; goroutine < 8; goroutine++ {
		go func(seed int64) {
			local := src.CopyNew()
			dst := r.NewPoly(6)
			r.AutomorphismParallel(dst, local, 5, pool)
			if !dst.Equal(want) {
				done <- errMismatch
				return
			}
			r.NTTParallel(local, pool)
			r.INTTParallel(local, pool)
			if !local.Equal(src) {
				done <- errMismatch
				return
			}
			done <- nil
		}(int64(goroutine))
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestScratchPoolRoundTrip(t *testing.T) {
	r := testRing(t, 64, 4)
	p := r.GetPoly(3)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != 0 {
				t.Fatal("GetPoly must return a zeroed polynomial")
			}
			p.Coeffs[i][j] = 7
		}
	}
	r.PutPoly(p)
	q := r.GetPoly(4)
	for i := range q.Coeffs {
		for j := range q.Coeffs[i] {
			if q.Coeffs[i][j] != 0 {
				t.Fatal("recycled GetPoly must still be zeroed")
			}
		}
	}
	r.PutPoly(q)

	v := r.GetVec()
	if len(v) != r.N {
		t.Fatalf("GetVec length %d, want %d", len(v), r.N)
	}
	r.PutVec(v)
}

func BenchmarkNTTSerialVsParallel(b *testing.B) {
	logN := 13
	n := 1 << logN
	r := testRing(b, n, 16)
	rng := rand.New(rand.NewSource(74))
	p := randPoly(r, rng, 16, false)

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.NTT(p)
			r.INTT(p)
		}
	})
	pool := NewPool(runtime.GOMAXPROCS(0))
	b.Run("pool", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r.NTTParallel(p, pool)
			r.INTTParallel(p, pool)
		}
	})
}

// TestNTTGaloisPermutationConcurrent: limb workers of several evaluators
// resolve permutations at once. First use of an element from many goroutines
// must hand every caller the same table, and it must be the permutation a
// serial caller gets.
func TestNTTGaloisPermutationConcurrent(t *testing.T) {
	r := testRing(t, 1<<6, 1)
	const workers = 8
	for _, g := range []uint64{5, 25, 2*64 - 1, 5 * 5 * 5 * 5 * 5 % (2 * 64)} {
		got := make([][]int, workers)
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[w] = r.NTTGaloisPermutation(g)
			}()
		}
		wg.Wait()
		want := r.NTTGaloisPermutation(g)
		for w := range got {
			if &got[w][0] != &want[0] {
				t.Fatalf("g=%d: worker %d holds a different table than the cache", g, w)
			}
		}
		seen := make([]bool, len(want))
		for _, p := range want {
			if seen[p] {
				t.Fatalf("g=%d: not a permutation", g)
			}
			seen[p] = true
		}
	}
}

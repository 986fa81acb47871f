package ring

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

var errMismatch = errors.New("ring: concurrent op result differs from serial")

// testPools covers the serial degenerate cases and genuinely concurrent
// pools, including one wider than any limb count in these tests.
func testPools() []*Pool {
	return []*Pool{nil, NewPool(1), NewPool(2), NewPool(4), NewPool(16), NewPool(100)}
}

// automorphismOver applies X ↦ X^g limb by limb across the pool, the way a
// limb stage would: one routing map shared by every task. What it leans on —
// HFCache.Get and Map.Apply on a shared map — is documented safe for
// concurrent use; the tests below hold it to that against the serial map.
func automorphismOver(r *Ring, pool *Pool, dst, src *Poly, g uint64) {
	m := r.HF.Get(g)
	Run(pool, len(src.Coeffs), dst, func(dst *Poly, i int) {
		m.Apply(dst.Coeffs[i], src.Coeffs[i], r.Moduli[i])
	})
}

// hfSerial is the HFAuto map applied limb after limb on the caller's
// goroutine: what automorphismOver must reproduce at every pool width.
func hfSerial(r *Ring, dst, src *Poly, g uint64) {
	m := r.HF.Get(g)
	for i := range src.Coeffs {
		m.Apply(dst.Coeffs[i], src.Coeffs[i], r.Moduli[i])
	}
}

// TestParallelMatchesSerial: NTT is NTTParallel on a nil pool; every pool
// width must give its bits.
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
	}
}

// TestParallelElementwiseMatchesSerial: the limbs of an RNS polynomial are
// independent — an elementwise op over the whole chain is that op over each
// prime's own ring — which is what lets the evaluator run them as limb stages
// in any order on any worker. Checked with the serial ops themselves, one
// single-prime ring per limb, dispatched across every pool width.
func TestParallelElementwiseMatchesSerial(t *testing.T) {
	const limbs = 6
	r := testRing(t, 128, limbs)
	rng := rand.New(rand.NewSource(71))
	a := randPoly(r, rng, limbs, true)
	b := randPoly(r, rng, limbs, true)
	sub := make([]*Ring, limbs)
	for i := range sub {
		var err error
		if sub[i], err = NewRing(r.N, []uint64{r.Moduli[i].Q}); err != nil {
			t.Fatal(err)
		}
	}
	limb := func(p *Poly, i int) *Poly { return &Poly{Coeffs: p.Coeffs[i : i+1], IsNTT: p.IsNTT} }

	for _, op := range []struct {
		name string
		f    func(r *Ring, out, a, b *Poly)
	}{
		{"MulCoeffwise", (*Ring).MulCoeffwise},
		{"Add", (*Ring).Add},
		{"Sub", (*Ring).Sub},
		{"Neg", func(r *Ring, out, a, _ *Poly) { r.Neg(out, a) }},
	} {
		for _, pool := range testPools() {
			want, got := a.CopyNew(), a.CopyNew() // got's domain flag is a's: limb views set their own
			op.f(r, want, a, b)
			Run(pool, limbs, got, func(got *Poly, i int) {
				op.f(sub[i], limb(got, i), limb(a, i), limb(b, i))
			})
			if !got.Equal(want) {
				t.Errorf("workers=%d: %s limb by limb differs from the whole-chain op", pool.Workers(), op.name)
			}
		}
	}
}

func TestParallelAutomorphismMatchesSerial(t *testing.T) {
	r := testRing(t, 128, 5)
	rng := rand.New(rand.NewSource(72))
	src := randPoly(r, rng, 5, false)

	for _, g := range []uint64{1, 5, 25, uint64(2*r.N - 1), 77} {
		want := r.NewPoly(5)
		hfSerial(r, want, src, g)
		for _, pool := range testPools() {
			got := r.NewPoly(5)
			automorphismOver(r, pool, got, src, g)
			if !got.Equal(want) {
				t.Errorf("g=%d workers=%d: limb-parallel automorphism differs", g, pool.Workers())
			}
		}
	}

	// The NTT-domain form as the evaluator's limb stages run it: one cached
	// permutation table gathered through by every limb task.
	ntt := src.CopyNew()
	r.NTT(ntt)
	for _, g := range []uint64{5, 25, uint64(2*r.N - 1)} {
		want := r.NewPoly(5)
		r.AutomorphismNTT(want, ntt, g)
		for _, pool := range testPools() {
			got := r.NewPoly(5)
			got.IsNTT = true
			perm := r.NTTGaloisPermutation(g)
			Run(pool, 5, got, func(got *Poly, i int) { ApplyPermutationNTT(got.Coeffs[i], ntt.Coeffs[i], perm) })
			if !got.Equal(want) {
				t.Errorf("g=%d workers=%d: limb-parallel NTT-domain permutation differs", g, pool.Workers())
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
				t.Error("INTT on coeff-domain input should panic")
			}
		}()
		r.INTT(p)
	}()
}

// TestConcurrentParallelOps exercises shared state under -race: one ring
// (shared NTT tables, HFAuto map cache, scratch arena) and one pool used by
// many goroutines at once.
func TestConcurrentParallelOps(t *testing.T) {
	r := testRing(t, 128, 6)
	pool := NewPool(4)
	rng := rand.New(rand.NewSource(73))
	src := randPoly(r, rng, 6, false)
	want := r.NewPoly(6)
	hfSerial(r, want, src, 5)

	done := make(chan error, 8)
	for goroutine := 0; goroutine < 8; goroutine++ {
		go func(seed int64) {
			local := src.CopyNew()
			dst := r.NewPoly(6)
			automorphismOver(r, pool, dst, local, 5)
			if !dst.Equal(want) {
				done <- errMismatch
				return
			}
			r.NTTParallel(local, pool)
			r.INTT(local)
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
	a := NewArena(64, 4)
	p := a.Get(3)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			if p.Coeffs[i][j] != 0 {
				t.Fatal("Get must return a zeroed polynomial")
			}
			p.Coeffs[i][j] = 7
		}
	}
	a.Put(p)
	q := a.Get(3)
	for i := range q.Coeffs {
		for j := range q.Coeffs[i] {
			if q.Coeffs[i][j] != 0 {
				t.Fatal("recycled Get must still be zeroed")
			}
		}
	}
	a.Put(q)
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
			r.INTT(p)
		}
	})
}

// TestNTTGaloisPermutationConcurrent: limb workers of several evaluators
// resolve permutations at once. First use of an element from many goroutines
// must hand every caller the same table, and it must be the permutation a
// serial caller gets. The table is the ring's own: a second ring of the same
// degree builds its own copy of the same permutation.
func TestNTTGaloisPermutationConcurrent(t *testing.T) {
	r := testRing(t, 1<<6, 1)
	other := testRing(t, 1<<6, 1)
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
		if o := other.NTTGaloisPermutation(g); &o[0] == &want[0] || !slices.Equal(o, want) {
			t.Fatalf("g=%d: a second ring must hold its own table of the same permutation", g)
		}
	}
}

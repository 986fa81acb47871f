package ring

import (
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/numeric"
)

// refRing is a two-limb ring of degree 64 over a 45-bit prime, which runs
// the IFMA52 lanes where the CPU has them, and a 61-bit one, which always
// runs the Go body.
func refRing(t testing.TB) *Ring {
	t.Helper()
	var qs []uint64
	for _, bits := range []int{45, 61} {
		ps, err := numeric.GenerateNTTPrimes(bits, 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, ps[0])
	}
	r, err := NewRing(64, qs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// concurrently runs f on `workers` executors at once — the ring shared,
// every result private — and returns the results; one worker is a plain call.
func concurrently(workers int, f func() *Poly) []*Poly {
	out := make([]*Poly, workers)
	Run(NewPool(workers), workers, &out, func(out *[]*Poly, w int) { (*out)[w] = f() })
	return out
}

// The ring's transforms and elementwise products, serial and on two
// concurrent executors, against direct references: the strict per-table
// transforms, a mod.Mul loop for the products, and the schoolbook
// negacyclic convolution for one NTT → product → INTT round, on a lanes
// prime and a Go-body prime with band-edge residues on every limb.
func TestStrictLazyKernelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := refRing(t)
	mkCoeff := func() *Poly {
		p := randPoly(r, rng, 2, false)
		for i, mod := range r.Moduli {
			p.Coeffs[i][0], p.Coeffs[i][1], p.Coeffs[i][2] = 0, 1, mod.Q-1
		}
		return p
	}
	// check runs op on a copy of src at 1 and 2 workers and compares every
	// result with want, which ref computes limb by limb from src.
	check := func(t *testing.T, src *Poly, op func(*Poly), ref func(i int, c []uint64)) {
		want := src.CopyNew()
		for i := range want.Coeffs {
			ref(i, want.Coeffs[i])
		}
		for _, workers := range []int{1, 2} {
			for _, got := range concurrently(workers, func() *Poly {
				p := src.CopyNew()
				op(p)
				return p
			}) {
				for i := range got.Coeffs {
					if !slices.Equal(got.Coeffs[i], want.Coeffs[i]) {
						t.Fatalf("workers=%d limb %d (q=%d): differs from the reference", workers, i, r.Moduli[i].Q)
					}
				}
			}
		}
	}
	a, b := mkCoeff(), mkCoeff()
	a.IsNTT, b.IsNTT = true, true

	t.Run("NTT", func(t *testing.T) {
		check(t, mkCoeff(), r.NTT, func(i int, c []uint64) { r.Tables[i].ForwardStrict(c) })
	})
	t.Run("INTT", func(t *testing.T) {
		src := mkCoeff()
		src.IsNTT = true
		check(t, src, r.INTT, func(i int, c []uint64) { r.Tables[i].InverseStrict(c) })
	})
	t.Run("MulCoeffwise", func(t *testing.T) {
		check(t, a, func(p *Poly) { r.MulCoeffwise(p, p, b) }, func(i int, c []uint64) {
			mod := r.Moduli[i]
			for j := range c {
				c[j] = mod.Mul(c[j], b.Coeffs[i][j])
			}
		})
	})
	t.Run("Convolution", func(t *testing.T) {
		x, y := mkCoeff(), mkCoeff()
		check(t, x, func(p *Poly) {
			yy := y.CopyNew()
			r.NTT(p)
			r.NTT(yy)
			r.MulCoeffwise(p, p, yy)
			r.INTT(p)
		}, func(i int, c []uint64) {
			copy(c, r.Tables[i].NegacyclicConvolution(c, y.Coeffs[i]))
		})
	})
}

// The pooled transform runs the same limb body at every worker count.
func TestStrictLazyKernelIdentityParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := refRing(t)
	src := randPoly(r, rng, 2, false)
	want := src.CopyNew()
	for i := range want.Coeffs {
		r.Tables[i].ForwardStrict(want.Coeffs[i])
	}
	want.IsNTT = true

	for _, workers := range []int{1, 2, 4} {
		p := src.CopyNew()
		r.NTTParallel(p, NewPool(workers))
		if !p.Equal(want) {
			t.Fatalf("workers=%d: NTTParallel != ForwardStrict", workers)
		}
	}
}

// Poly.Equal must distinguish domain flags, limb counts, and coefficients.
func TestPolyEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	r := testRing(t, 32, 2)
	p := randPoly(r, rng, 2, false)
	q := p.CopyNew()
	if !p.Equal(q) {
		t.Fatal("copy should be equal")
	}
	q.IsNTT = true
	if p.Equal(q) {
		t.Fatal("domain flag should break equality")
	}
	q.IsNTT = false
	q.Coeffs[1][7]++
	if p.Equal(q) {
		t.Fatal("coefficient change should break equality")
	}
	short := &Poly{Coeffs: p.Coeffs[:1], IsNTT: p.IsNTT}
	if p.Equal(short) {
		t.Fatal("limb count should break equality")
	}
}

// ForwardLimb / InverseLimb must agree bit for bit with the strict
// per-table reference for every ring degree the scheme admits up to 2^14,
// on a wide and a narrow prime.
func TestDefaultDispatchMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for logN := 3; logN <= 14; logN++ {
		n := 1 << uint(logN)
		var qs []uint64
		for _, bits := range []int{61, 40} {
			ps, err := numeric.GenerateNTTPrimes(bits, logN, 1)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, ps[0])
		}
		r, err := NewRing(n, qs)
		if err != nil {
			t.Fatal(err)
		}
		src := randPoly(r, rng, 2, false)
		for i, q := range qs {
			src.Coeffs[i][0], src.Coeffs[i][1], src.Coeffs[i][n-1] = 0, q-1, q-1
		}
		for i := range qs {
			got := slices.Clone(src.Coeffs[i])
			want := slices.Clone(src.Coeffs[i])
			r.ForwardLimb(i, got)
			r.Tables[i].ForwardStrict(want)
			if !slices.Equal(got, want) {
				t.Fatalf("logN=%d limb %d: ForwardLimb differs from ForwardStrict", logN, i)
			}
			r.InverseLimb(i, got)
			r.Tables[i].InverseStrict(want)
			if !slices.Equal(got, want) || !slices.Equal(got, src.Coeffs[i]) {
				t.Fatalf("logN=%d limb %d: InverseLimb differs from InverseStrict", logN, i)
			}
		}
	}
}

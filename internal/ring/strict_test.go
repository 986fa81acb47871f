package ring

import (
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
)

// withStrict runs f twice — once per kernel mode — and returns the two
// results for comparison, restoring the original mode afterwards.
func withStrict(r *Ring, f func() *Poly) (lazy, strict *Poly) {
	saved := r.StrictKernels()
	defer r.SetStrictKernels(saved)
	r.SetStrictKernels(false)
	lazy = f()
	r.SetStrictKernels(true)
	strict = f()
	return lazy, strict
}

// Every ring operation the lazy kernels rewrote must stay bit-identical to
// the strict reference path, limb for limb, including edge residues.
func TestStrictLazyKernelIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	r := testRing(t, 64, 3)
	q0 := r.Moduli[0].Q

	mkCoeff := func() *Poly {
		p := randPoly(r, rng, 3, false)
		// Pin band edges in limb 0.
		p.Coeffs[0][0] = 0
		p.Coeffs[0][1] = 1
		p.Coeffs[0][2] = q0 - 1
		return p
	}

	t.Run("NTT", func(t *testing.T) {
		src := mkCoeff()
		lazy, strict := withStrict(r, func() *Poly {
			p := src.CopyNew()
			r.NTT(p)
			return p
		})
		if !lazy.Equal(strict) {
			t.Fatal("NTT lazy/strict outputs differ")
		}
	})

	t.Run("INTT", func(t *testing.T) {
		src := mkCoeff()
		src.IsNTT = true
		lazy, strict := withStrict(r, func() *Poly {
			p := src.CopyNew()
			r.INTT(p)
			return p
		})
		if !lazy.Equal(strict) {
			t.Fatal("INTT lazy/strict outputs differ")
		}
	})

	a := mkCoeff()
	b := mkCoeff()
	a.IsNTT, b.IsNTT = true, true

	t.Run("MulCoeffwise", func(t *testing.T) {
		lazy, strict := withStrict(r, func() *Poly {
			out := r.NewPoly(3)
			out.IsNTT = true
			r.MulCoeffwise(out, a, b)
			return out
		})
		if !lazy.Equal(strict) {
			t.Fatal("MulCoeffwise lazy/strict outputs differ")
		}
	})

	t.Run("MulCoeffwiseAdd", func(t *testing.T) {
		acc := mkCoeff()
		acc.IsNTT = true
		lazy, strict := withStrict(r, func() *Poly {
			out := acc.CopyNew()
			r.MulCoeffwiseAdd(out, a, b)
			return out
		})
		if !lazy.Equal(strict) {
			t.Fatal("MulCoeffwiseAdd lazy/strict outputs differ")
		}
	})
}

// The pooled transform dispatches through the same strict toggle; prove
// lazy-parallel == strict-serial at several worker counts.
func TestStrictLazyKernelIdentityParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	r := testRing(t, 64, 4)
	src := randPoly(r, rng, 4, false)

	r.SetStrictKernels(true)
	wantNTT := src.CopyNew()
	r.NTT(wantNTT)
	r.SetStrictKernels(false)

	for _, workers := range []int{1, 2, 4} {
		p := src.CopyNew()
		r.NTTParallel(p, NewPool(workers))
		if !p.Equal(wantNTT) {
			t.Fatalf("workers=%d: lazy NTTParallel != strict NTT", workers)
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

// What ForwardLimb/InverseLimb run when nobody selects anything must be the
// fused radix-8 kernel, and it — like the one-stage-per-pass degree a
// differential test can still select — must agree bit for bit with the
// strict per-table reference, for every ring degree the scheme admits up to
// 2^14 and on a wide and a narrow prime.
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
		r, err := NewRing(n, qs, 0)
		if err != nil {
			t.Fatal(err)
		}
		if r.FusionDegree() != ntt.DefaultFusionDegree {
			t.Fatalf("logN=%d: a fresh ring runs degree %d, want the default %d", logN, r.FusionDegree(), ntt.DefaultFusionDegree)
		}
		src := randPoly(r, rng, 2, false)
		for i, q := range qs {
			src.Coeffs[i][0], src.Coeffs[i][1], src.Coeffs[i][n-1] = 0, q-1, q-1
		}
		for _, k := range []int{0, 1} {
			if err := r.SetFusionDegree(k); err != nil {
				t.Fatal(err)
			}
			for i := range qs {
				got := slices.Clone(src.Coeffs[i])
				want := slices.Clone(src.Coeffs[i])
				r.ForwardLimb(i, got)
				r.Tables[i].ForwardStrict(want)
				if !slices.Equal(got, want) {
					t.Fatalf("logN=%d limb %d degree %d: ForwardLimb differs from ForwardStrict", logN, i, r.FusionDegree())
				}
				r.InverseLimb(i, got)
				r.Tables[i].InverseStrict(want)
				if !slices.Equal(got, want) || !slices.Equal(got, src.Coeffs[i]) {
					t.Fatalf("logN=%d limb %d degree %d: InverseLimb differs from InverseStrict", logN, i, r.FusionDegree())
				}
			}
		}
	}
}

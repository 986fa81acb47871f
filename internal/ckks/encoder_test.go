package ckks

import (
	"math"
	"math/big"
	"math/cmplx"
	"math/rand"
	"testing"

	"poseidon/internal/ring"
)

func smallParams(t testing.TB) *Parameters {
	t.Helper()
	p, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randomComplex(rng *rand.Rand, n int, bound float64) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex((rng.Float64()*2-1)*bound, (rng.Float64()*2-1)*bound)
	}
	return z
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(1))
	z := randomComplex(rng, p.Slots, 1.0)
	pt := enc.Encode(z, p.MaxLevel(), p.Scale)
	got := enc.Decode(pt)
	if e := maxErr(z, got); e > 1e-8 {
		t.Errorf("round-trip error %g too large", e)
	}
}

func TestEncodeDecodePartialVector(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	z := []complex128{1 + 2i, -3, 0.5i}
	pt := enc.EncodeReal([]float64{1, -3, 0.5}, p.MaxLevel(), p.Scale)
	_ = z
	got := enc.Decode(pt)
	want := []float64{1, -3, 0.5}
	for i, w := range want {
		if math.Abs(real(got[i])-w) > 1e-8 || math.Abs(imag(got[i])) > 1e-8 {
			t.Errorf("slot %d: got %v want %v", i, got[i], w)
		}
	}
	for i := len(want); i < p.Slots; i++ {
		if cmplx.Abs(got[i]) > 1e-8 {
			t.Errorf("slot %d should be ~0, got %v", i, got[i])
		}
	}
}

// The embedding must be the canonical one: slot i of the decoded vector
// equals m(ζ^{5^i}) for ζ = e^{iπ/N}, evaluated directly on the centered
// coefficients.
func TestDecodeMatchesDirectEvaluation(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(2))
	z := randomComplex(rng, p.Slots, 1.0)
	pt := enc.Encode(z, p.MaxLevel(), p.Scale)

	// Gather centered integer coefficients.
	poly := pt.Value.CopyNew()
	p.RingQ.INTT(poly)
	coeffs := make([]float64, p.N)
	for j := 0; j < p.N; j++ {
		coeffs[j] = bigToFloat(p.RingQ.ToBigCentered(poly, j))
	}

	// Direct evaluation at ζ^{5^i}.
	m := 2 * p.N
	for i := 0; i < p.Slots; i += 17 { // sample a few slots
		e := enc.rotGroup[i]
		root := cmplx.Exp(complex(0, 2*math.Pi*float64(e)/float64(m)))
		acc := complex(0, 0)
		x := complex(1, 0)
		for j := 0; j < p.N; j++ {
			acc += complex(coeffs[j], 0) * x
			x *= root
		}
		acc /= complex(pt.Scale, 0)
		if cmplx.Abs(acc-z[i]) > 1e-6 {
			t.Errorf("slot %d: direct evaluation %v, encoded %v", i, acc, z[i])
		}
	}
}

// Encoding must be additively homomorphic at the coefficient level.
func TestEncodeAdditive(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(3))
	z1 := randomComplex(rng, p.Slots, 1.0)
	z2 := randomComplex(rng, p.Slots, 1.0)
	sum := make([]complex128, p.Slots)
	for i := range sum {
		sum[i] = z1[i] + z2[i]
	}
	pt1 := enc.Encode(z1, p.MaxLevel(), p.Scale)
	pt2 := enc.Encode(z2, p.MaxLevel(), p.Scale)
	p.RingQ.Add(pt1.Value, pt1.Value, pt2.Value)
	got := enc.Decode(pt1)
	if e := maxErr(sum, got); e > 1e-7 {
		t.Errorf("additive homomorphism error %g", e)
	}
}

// Multiplying encodings as ring elements must multiply slots element-wise
// (scale becomes Δ²).
func TestEncodeMultiplicative(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(4))
	z1 := randomComplex(rng, p.Slots, 1.0)
	z2 := randomComplex(rng, p.Slots, 1.0)
	prod := make([]complex128, p.Slots)
	for i := range prod {
		prod[i] = z1[i] * z2[i]
	}
	pt1 := enc.Encode(z1, p.MaxLevel(), p.Scale)
	pt2 := enc.Encode(z2, p.MaxLevel(), p.Scale)
	out := p.RingQ.NewPoly(p.MaxLevel() + 1)
	p.RingQ.MulCoeffwise(out, pt1.Value, pt2.Value)
	ptOut := &Plaintext{Value: out, Scale: pt1.Scale * pt2.Scale, Level: p.MaxLevel()}
	got := enc.Decode(ptOut)
	if e := maxErr(prod, got); e > 1e-6 {
		t.Errorf("multiplicative homomorphism error %g", e)
	}
}

// Applying the Galois automorphism with element 5 must cyclically shift the
// slot vector by one position.
func TestAutomorphismShiftsSlots(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(5))
	z := randomComplex(rng, p.Slots, 1.0)
	pt := enc.Encode(z, p.MaxLevel(), p.Scale)

	poly := pt.Value.CopyNew()
	p.RingQ.INTT(poly)
	rot := p.RingQ.NewPoly(p.MaxLevel() + 1)
	naiveAutomorphism(p.RingQ, rot, poly, 5)
	p.RingQ.NTT(rot)
	got := enc.Decode(&Plaintext{Value: rot, Scale: pt.Scale, Level: pt.Level})

	want := make([]complex128, p.Slots)
	for i := range want {
		want[i] = z[(i+1)%p.Slots]
	}
	if e := maxErr(want, got); e > 1e-7 {
		t.Errorf("rotation semantics error %g", e)
	}
}

// Conjugation element 2N−1 must conjugate every slot.
func TestAutomorphismConjugates(t *testing.T) {
	p := smallParams(t)
	enc := NewEncoder(p)
	rng := rand.New(rand.NewSource(6))
	z := randomComplex(rng, p.Slots, 1.0)
	pt := enc.Encode(z, p.MaxLevel(), p.Scale)

	poly := pt.Value.CopyNew()
	p.RingQ.INTT(poly)
	conj := p.RingQ.NewPoly(p.MaxLevel() + 1)
	naiveAutomorphism(p.RingQ, conj, poly, uint64(2*p.N-1))
	p.RingQ.NTT(conj)
	got := enc.Decode(&Plaintext{Value: conj, Scale: pt.Scale, Level: pt.Level})
	for i := range z {
		if cmplx.Abs(got[i]-cmplx.Conj(z[i])) > 1e-7 {
			t.Fatalf("slot %d: conjugation mismatch", i)
		}
	}
}

// TestDecodeMatchesPerCoefficientCRT: Decode reconstructs every coefficient
// from one set of CRT constants, and its output is bit for bit what the
// per-coefficient ToBigCentered reference gives — on random residues, on
// the centered range's edges (0, ±1, ±(Q−1)/2, ±((Q−1)/2 − 1)) and on the
// all-zero and all-(q_i−1) polys, at several levels.
func TestDecodeMatchesPerCoefficientCRT(t *testing.T) {
	params := smallParams(t)
	enc := NewEncoder(params)
	rq, n := params.RingQ, params.Slots
	rng := rand.New(rand.NewSource(5))
	for _, level := range []int{0, 1, params.MaxLevel()} {
		bigQ := big.NewInt(1)
		for _, m := range rq.Moduli[:level+1] {
			bigQ.Mul(bigQ, new(big.Int).SetUint64(m.Q))
		}
		half := new(big.Int).Rsh(bigQ, 1)
		halfLess := new(big.Int).Sub(half, big.NewInt(1))
		edges := []*big.Int{big.NewInt(0), big.NewInt(1), big.NewInt(-1), half, new(big.Int).Neg(half), halfLess, new(big.Int).Neg(halfLess)}

		polys := map[string]*ring.Poly{}
		for _, name := range []string{"random", "edges", "zero", "max residues"} {
			p := rq.NewPoly(level + 1)
			for j := 0; j < params.N; j++ {
				switch name {
				case "edges":
					rq.SetBigCentered(p, j, edges[j%len(edges)])
				case "random":
					for i, m := range rq.Moduli[:level+1] {
						p.Coeffs[i][j] = rng.Uint64() % m.Q
					}
				case "max residues":
					for i, m := range rq.Moduli[:level+1] {
						p.Coeffs[i][j] = m.Q - 1
					}
				}
			}
			polys[name] = p
		}

		for name, p := range polys {
			pt := &Plaintext{Value: p, Scale: params.Scale, Level: level}
			want := make([]complex128, n)
			for j := range want {
				want[j] = complex(bigToFloat(rq.ToBigCentered(p, j))/pt.Scale, bigToFloat(rq.ToBigCentered(p, j+n))/pt.Scale)
			}
			enc.specialFFT(want)
			got := enc.Decode(pt)
			for j := range want {
				if math.Float64bits(real(got[j])) != math.Float64bits(real(want[j])) ||
					math.Float64bits(imag(got[j])) != math.Float64bits(imag(want[j])) {
					t.Fatalf("level %d, %s poly: slot %d decodes to %v, per-coefficient reference %v", level, name, j, got[j], want[j])
				}
			}
		}
	}
}

package ckks

import (
	"fmt"
	"testing"

	"poseidon/internal/ring"
)

// mulByMonomial multiplies a coefficient-domain polynomial by X^k
// (0 ≤ k < 2N) in place, with negacyclic wraparound: the definition MulByI's
// NTT-domain pass is held to.
func mulByMonomial(params *Parameters, p *ring.Poly, k int) {
	n := params.N
	for i, src := range p.Coeffs {
		mod := params.RingQ.Moduli[i]
		dst := make([]uint64, n)
		for j := 0; j < n; j++ {
			if t := (j + k) % (2 * n); t >= n {
				dst[t-n] = mod.Neg(src[j])
			} else {
				dst[t] = src[j]
			}
		}
		copy(src, dst)
	}
}

// TestMulByIMatchesCoefficientShift: the two-scalar NTT-domain pass leaves
// exactly the bits of INTT → shift by N/2 → NTT, at every worker count, at
// the top level and below it, in place or not.
func TestMulByIMatchesCoefficientShift(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct, _, _ := dc.freshInputs(23)
		for _, in := range []*Ciphertext{ct, dc.serial.DropLevel(ct, 1)} {
			want := in.CopyNew()
			for _, p := range []*ring.Poly{want.C0, want.C1} {
				params.RingQ.INTT(p)
				mulByMonomial(params, p, params.N/2)
				params.RingQ.NTT(p)
			}
			for _, w := range []int{1, 3} {
				ev := dc.serial.WithWorkers(w)
				msg := fmt.Sprintf("%s level %d workers=%d", pname, in.Level, w)
				requireCtEqual(t, ev.MulByI(in), want, msg)
				inPlace := in.CopyNew()
				must(ev.exec(&opMulByI, inPlace, operands{a: inPlace}))
				requireCtEqual(t, inPlace, want, msg+" in place")
			}
		}
	}
}

// TestScalarConstMatchesEncodedPlaintext: a real constant taken as an RNS
// scalar gives the bits of the same constant encoded, transformed and
// multiplied (or added) as a plaintext — on both differential parameter
// sets — for MulConst, MulConstToScale and AddConst, and for the
// multiply-accumulate the polynomial plans are built from.
func TestScalarConstMatchesEncodedPlaintext(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct1, ct2, _ := dc.freshInputs(29)
		ev := dc.serial
		for _, in := range []*Ciphertext{ct1, ev.DropLevel(ct1, 1)} {
			for _, c := range []float64{0.75, -2.5, 0, 1, -1e-9, 12345.678} {
				msg := fmt.Sprintf("%s level %d c=%g", pname, in.Level, c)
				q := float64(params.Q[in.Level])
				requireCtEqual(t, ev.MulConst(in, complex(c, 0)),
					ev.MulPlain(in, ev.encodeConst(complex(c, 0), in.Level, q)), msg+" MulConst")
				requireCtEqual(t, ev.AddConst(in, complex(c, 0)),
					ev.AddPlain(in, ev.encodeConst(complex(c, 0), in.Level, in.Scale)), msg+" AddConst")
				target := in.Scale * 1.0625
				want := ev.Rescale(ev.MulPlain(in, ev.encodeConst(complex(c, 0), in.Level, target*q/in.Scale)))
				want.Scale = target
				requireCtEqual(t, ev.MulConstToScale(in, complex(c, 0), target), want, msg+" MulConstToScale")

				// acc + s·b with acc already on the product's scale.
				acc := ev.MulConst(ev.DropLevel(ct2, in.Level), 1)
				s := params.newScalar(c, q, in.Level)
				got := must(ev.exec(&opMacScalar, nil, operands{a: acc, b: in, s: &s}))
				requireCtEqual(t, got, ev.Add(acc, ev.MulPlain(in, ev.encodeConst(complex(c, 0), in.Level, q))), msg+" MacScalar")
			}
		}
	}
}

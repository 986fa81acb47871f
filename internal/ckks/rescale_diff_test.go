package ckks

import (
	"fmt"
	"testing"
)

// coefficientDomainRescale is the rescale RescaleInto used to run, kept as
// the reference: every limb of both polynomials leaves the NTT domain
// through the strict inverse transform, the coefficient-domain rns.Rescale
// (itself checked against exact big-integer arithmetic in internal/rns)
// divides by the last prime, and the strict forward transform brings the
// remaining limbs back — 4l+2 transforms where the NTT-domain form runs
// 2l+2.
func coefficientDomainRescale(params *Parameters, ct *Ciphertext) *Ciphertext {
	rq := params.RingQ
	in := ct.CopyNew()
	out := NewCiphertext(params, ct.Level-1)
	for _, p := range [][2][][]uint64{{in.C0.Coeffs, out.C0.Coeffs}, {in.C1.Coeffs, out.C1.Coeffs}} {
		src, dst := p[0], p[1]
		for i := range src {
			rq.Tables[i].InverseStrict(src[i])
		}
		params.rescaler.Rescale(dst, src)
		for i := range dst {
			rq.Tables[i].ForwardStrict(dst[i])
		}
	}
	out.C0.IsNTT, out.C1.IsNTT = true, true
	out.Scale = ct.Scale / float64(params.Q[ct.Level])
	return out
}

// The NTT-domain rescale must reproduce the coefficient-domain one bit for
// bit at every level, serial and limb-parallel, into a fresh destination and
// in place. Run under -race in CI: the parallel stages share the re-reduced
// last limb read-only.
func TestRescaleNTTDomainMatchesCoefficientDomain(t *testing.T) {
	for pname, params := range diffParamSets(t) {
		dc := newDiffContext(t, params)
		ct, _, _ := dc.freshInputs(53)
		for level := params.MaxLevel(); level >= 1; level-- {
			in := dc.serial.DropLevel(ct, level)
			want := coefficientDomainRescale(params, in)
			for _, workers := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/level=%d/workers=%d", pname, level, workers), func(t *testing.T) {
					ev := dc.serial.WithWorkers(workers)
					requireCtEqual(t, ev.Rescale(in), want, "Rescale")
					alias := in.CopyNew()
					requireCtEqual(t, ev.RescaleInto(alias, alias), want, "RescaleInto in place")
				})
			}
		}
	}
}

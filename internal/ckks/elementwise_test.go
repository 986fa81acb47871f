package ckks

import (
	"fmt"
	"testing"

	"poseidon/internal/ring"
)

// TestElementwiseStagesMatchRing: HAdd, HSub, HNeg and HAddPlain are limb
// stages of the evaluator, not calls into the ring, so the ring's serial
// whole-polynomial ops are an independent statement of what they compute.
// The additive ops are domain-agnostic: on NTT-domain and on
// coefficient-domain operands alike, at 1, 2 and 3 workers, both components
// must equal ring.Add / Sub / Neg bit for bit and stay in the domain the
// operands were in. (ring.check, which panicked on a limb-count mismatch or a
// short row, is no longer on their path: exec's validators are what stands
// between a malformed operand and an out-of-range index — the operand rows of
// TestTrySentinels.)
func TestElementwiseStagesMatchRing(t *testing.T) {
	params := diffParamSets(t)["LogN9-L4-alpha2"]
	rq := params.RingQ
	dc := newDiffContext(t, params)
	a, b, pt := dc.freshInputs(53)

	for _, isNTT := range []bool{true, false} {
		if !isNTT {
			a, b, pt = a.CopyNew(), b.CopyNew(), &Plaintext{Value: pt.Value.CopyNew(), Scale: pt.Scale, Level: pt.Level}
			for _, p := range []*ring.Poly{a.C0, a.C1, b.C0, b.C1, pt.Value} {
				rq.INTT(p)
			}
		}
		limbs := a.Level + 1
		want := func(f func(out, x, y *ring.Poly), x, y *ring.Poly) *ring.Poly {
			out := rq.NewPoly(limbs)
			f(out, x, y)
			return out
		}
		neg := func(out, x, _ *ring.Poly) { rq.Neg(out, x) }
		for _, op := range []struct {
			name   string
			run    func(ev *Evaluator) *Ciphertext
			c0, c1 *ring.Poly
		}{
			{"Add", func(ev *Evaluator) *Ciphertext { return ev.Add(a, b) }, want(rq.Add, a.C0, b.C0), want(rq.Add, a.C1, b.C1)},
			{"Sub", func(ev *Evaluator) *Ciphertext { return ev.Sub(a, b) }, want(rq.Sub, a.C0, b.C0), want(rq.Sub, a.C1, b.C1)},
			{"Neg", func(ev *Evaluator) *Ciphertext { return ev.Neg(a) }, want(neg, a.C0, nil), want(neg, a.C1, nil)},
			{"AddPlain", func(ev *Evaluator) *Ciphertext { return ev.AddPlain(a, pt) }, want(rq.Add, a.C0, pt.Value), a.C1},
		} {
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("ntt=%v/%s/workers=%d", isNTT, op.name, workers), func(t *testing.T) {
					got := op.run(dc.serial.WithWorkers(workers))
					if !got.C0.Equal(op.c0) || !got.C1.Equal(op.c1) {
						t.Fatal("limb stages differ from the serial ring op")
					}
					if got.C0.IsNTT != isNTT || got.C1.IsNTT != isNTT {
						t.Fatalf("result domain (%v, %v), operands were ntt=%v", got.C0.IsNTT, got.C1.IsNTT, isNTT)
					}
				})
			}
		}
	}
}

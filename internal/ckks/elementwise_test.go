package ckks

import (
	"errors"
	"fmt"
	"testing"

	"poseidon/internal/ring"
)

// TestElementwiseStagesMatchRing: HAdd, HSub, HNeg and HAddPlain are limb
// stages of the evaluator, not calls into the ring, so the ring's serial
// whole-polynomial ops are an independent statement of what they compute. On
// NTT-domain operands, at 1, 2 and 3 workers, both components must equal
// ring.Add / Sub / Neg bit for bit and stay in the NTT domain. The additive
// stages themselves would compute on coefficient-domain operands just as
// well, but no kernel may be handed one: those rows must be refused as
// ErrInvalidInput before any stage runs. (ring.check, which panicked on a
// limb-count mismatch or a short row, is no longer on their path: exec's
// validators are what stands between a malformed operand and an
// out-of-range index — the operand rows of TestTrySentinels.)
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
			run    func(ev *Evaluator) (*Ciphertext, error)
			c0, c1 *ring.Poly
		}{
			{"Add", func(ev *Evaluator) (*Ciphertext, error) { return ev.TryAddInto(nil, a, b) }, want(rq.Add, a.C0, b.C0), want(rq.Add, a.C1, b.C1)},
			{"Sub", func(ev *Evaluator) (*Ciphertext, error) { return ev.TrySubInto(nil, a, b) }, want(rq.Sub, a.C0, b.C0), want(rq.Sub, a.C1, b.C1)},
			{"Neg", func(ev *Evaluator) (*Ciphertext, error) { return ev.TryNegInto(nil, a) }, want(neg, a.C0, nil), want(neg, a.C1, nil)},
			{"AddPlain", func(ev *Evaluator) (*Ciphertext, error) { return ev.TryAddPlainInto(nil, a, pt) }, want(rq.Add, a.C0, pt.Value), a.C1},
		} {
			for _, workers := range []int{1, 2, 3} {
				t.Run(fmt.Sprintf("ntt=%v/%s/workers=%d", isNTT, op.name, workers), func(t *testing.T) {
					got, err := op.run(dc.serial.WithWorkers(workers))
					if !isNTT {
						if !errors.Is(err, ErrInvalidInput) {
							t.Fatalf("coefficient-domain operands: %v, want ErrInvalidInput", err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if !got.C0.Equal(op.c0) || !got.C1.Equal(op.c1) {
						t.Fatal("limb stages differ from the serial ring op")
					}
					if !got.C0.IsNTT || !got.C1.IsNTT {
						t.Fatalf("result domain (%v, %v), operands were in the NTT domain", got.C0.IsNTT, got.C1.IsNTT)
					}
				})
			}
		}
	}
}

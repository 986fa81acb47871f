package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// interpret runs the plan in the clear on one real input: the same nodes in
// the same order, the rounded integers the scalar ops multiply by, the primes
// the rescales divide by — carried as value·scale in 256-bit floats, the way
// a noiseless ciphertext would carry them — and the recorded scale only at
// the very end. A node whose integers, level or scale are wrong shows up
// here, without a key.
func (p *polyPlan) interpret(x float64) float64 {
	f := func(v float64) *big.Float { return new(big.Float).SetPrec(256).SetFloat64(v) }
	raw := make([]*big.Float, len(p.nodes))
	raw[0] = f(x)
	raw[0].Mul(raw[0], f(p.scale))
	for i := 1; i < len(p.nodes); i++ {
		n := &p.nodes[i]
		acc := f(0)
		if n.a >= 0 {
			acc.Mul(raw[n.a], raw[n.b])
			acc.Mul(acc, f(n.mul.val))
		}
		for _, t := range n.terms {
			acc.Add(acc, f(0).Mul(raw[t.src], f(t.s.val)))
		}
		acc.Quo(acc, f(float64(p.params.Q[p.level-n.pre])))
		if n.sum >= 0 {
			acc.Add(acc, raw[n.sum])
		}
		raw[i] = acc.Add(acc, f(n.add.val))
	}
	last := len(p.nodes) - 1
	v, _ := f(0).Quo(raw[last], f(p.nodes[last].scale)).Float64()
	return v
}

func sineCoeffs(k float64, degree int) []float64 {
	return ChebyshevCoefficients(func(x float64) float64 { return math.Sin(2*math.Pi*x) / (2 * math.Pi) }, -k, k, degree)
}

type planCase struct {
	name   string
	coeffs []float64
	lo, hi float64 // the interval inputs are drawn from ([a, b] of a Chebyshev plan)
	plan   *polyPlan
}

// reference evaluates the case's polynomial the way a caller would.
func (c *planCase) reference(x float64) float64 {
	if c.plan.cheb {
		return EvalChebyshevScalar(c.coeffs, c.lo, c.hi, x)
	}
	v := 0.0
	for k := len(c.coeffs) - 1; k >= 0; k-- {
		v = v*x + c.coeffs[k]
	}
	return v
}

// planCases are the polynomials the clear-text checks run over: the B9 sine
// on its q0-scaled input, and constant, linear, dense and even ones in both
// bases on inputs at that scale and at 2Δ (brought to Δ by the input map) and
// at Δ (the working scale already) — each sized one level above its depth.
func planCases(t *testing.T, params *Parameters) []planCase {
	rng := rand.New(rand.NewSource(5))
	dense := func(deg int) []float64 {
		c := make([]float64, deg+1)
		for i := range c {
			c[i] = rng.Float64()*2 - 1
		}
		return c
	}
	even := dense(12)
	for k := 1; k < len(even); k += 2 {
		even[k] = 0
	}
	q0 := float64(params.Q[0])
	cases := []planCase{{name: "sine-K28-deg216", coeffs: sineCoeffs(28, 216), lo: -28, hi: 28,
		plan: newPolyPlan(params, true, sineCoeffs(28, 216), 1.0/28, 0, q0)}}
	for _, c := range [][]float64{dense(0), dense(1), dense(7), dense(23), even} {
		for _, scale := range []float64{q0, 2 * params.Scale, params.Scale} {
			name := fmt.Sprintf("deg%d-scale2^%.0f", len(c)-1, math.Log2(scale))
			cases = append(cases,
				planCase{"cheb-" + name, c, -2, 3, newPolyPlan(params, true, c, 2.0/5, -1.0/5, scale)},
				planCase{"mono-" + name, c, -1, 1, newPolyPlan(params, false, c, 1, 0, scale)})
		}
	}
	for _, c := range cases {
		if err := c.plan.size(c.plan.depth() + 1); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return cases
}

// TestPlanInterpreterMatchesScalar: 1 000 points per plan. Every constant of
// the basis — the −1 of a doubling included — is an integer over the working
// scale, and the doublings carry that half-unit rounding up by 2^8 or so: at
// Δ = 2^45 agreement is 2^−34 or better, whatever scale the input wears.
func TestPlanInterpreterMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, c := range planCases(t, bootstrapParams(t)) {
		worst := 0.0
		for i := 0; i < 1000; i++ {
			x := c.lo + (c.hi-c.lo)*rng.Float64()
			worst = math.Max(worst, math.Abs(c.plan.interpret(x)-c.reference(x)))
		}
		if tol := math.Exp2(11) / c.plan.work; worst > tol {
			t.Errorf("%s: plan and scalar evaluation disagree by 2^%.1f", c.name, math.Log2(worst))
		}
	}
}

// TestPlanScalesSayWhatWasMultiplied is the scale rule as pure arithmetic:
// a product's recorded scale is its operands' scales times the integer it
// multiplies by, over the factor it stands for and the primes it drops — in
// exact rationals, to one ulp — the input map's likewise, the root's is the
// input's, and every addend sits on the sum it joins.
func TestPlanScalesSayWhatWasMultiplied(t *testing.T) {
	rat := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	for _, c := range planCases(t, bootstrapParams(t)) {
		p := c.plan
		for i := 1; i < len(p.nodes); i++ {
			n := &p.nodes[i]
			var want *big.Rat
			switch {
			case n.a >= 0:
				want = rat(p.nodes[n.a].scale)
				want.Mul(want, rat(p.nodes[n.b].scale)).Mul(want, rat(n.mul.val)).Quo(want, rat(n.factor))
			case n.basis:
				want = rat(p.nodes[0].scale)
				want.Mul(want, rat(n.terms[0].s.val)).Quo(want, rat(n.terms[0].c))
			default:
				continue // a leaf lands where it is told to
			}
			want.Quo(want, rat(float64(p.params.Q[p.level-n.pre])))
			exact, _ := want.Float64()
			if ulp := math.Nextafter(exact, math.Inf(1)) - exact; math.Abs(n.scale-exact) > ulp {
				t.Errorf("%s node %d: recorded scale %v, multiplied scale %v (%.1f ulp)", c.name, i, n.scale, exact, (n.scale-exact)/ulp)
			}
			if n.sum >= 0 && p.nodes[n.sum].scale != n.scale {
				t.Errorf("%s node %d: remainder at scale %v joins a sum at %v", c.name, i, p.nodes[n.sum].scale, n.scale)
			}
		}
		if got := p.nodes[len(p.nodes)-1].scale; got != p.scale {
			t.Errorf("%s: result scale %v, input scale %v", c.name, got, p.scale)
		}
	}
}

// TestPlanShapeB9Sine pins what the B9 sine compiles to: the odd series
// builds eleven baby products and three giant ones (not fifteen and three),
// its 14 leaves and 13 tree products sit under them, and — every product
// coming back under one prime although the input wears a q0-sized scale — the
// whole is 9 levels: the input map, ⌈log2 128⌉ doublings and the root.
func TestPlanShapeB9Sine(t *testing.T) {
	params := bootstrapParams(t)
	p := newPolyPlan(params, true, sineCoeffs(28, 216), 1.0/28, 0, float64(params.Q[0]))
	var basis, tree, leaves, primes int
	for _, n := range p.nodes[1:] {
		switch {
		case n.a >= 0 && n.basis:
			basis++
		case n.a >= 0:
			tree++
		case !n.basis:
			leaves++
		}
		if n.a >= 0 {
			primes = max(primes, n.depth-max(p.nodes[n.a].depth, p.nodes[n.b].depth))
		}
	}
	if basis != 14 || tree != 13 || leaves != 14 || p.depth() != 9 || primes != 1 {
		t.Errorf("B9 sine: %d basis products, %d tree products, %d leaves, depth %d, %d primes per product; want 14, 13, 14, 9, 1",
			basis, tree, leaves, p.depth(), primes)
	}
	for k := range p.power {
		if k%2 == 0 && k&(k-1) != 0 {
			t.Errorf("odd series built T_%d", k)
		}
	}
	if err := p.size(8); err == nil {
		t.Error("sizing a 9-level plan at level 8 succeeded")
	}
}

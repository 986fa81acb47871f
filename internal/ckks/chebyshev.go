package ckks

import "math"

// ChebyshevCoefficients interpolates f on [a, b] with a degree-`degree`
// Chebyshev expansion (coefficients in the Chebyshev basis of the
// normalized variable u ∈ [−1, 1]).
func ChebyshevCoefficients(f func(float64) float64, a, b float64, degree int) []float64 {
	m := degree + 1
	nodes := make([]float64, m)
	vals := make([]float64, m)
	for j := 0; j < m; j++ {
		theta := math.Pi * (float64(j) + 0.5) / float64(m)
		nodes[j] = math.Cos(theta)
		x := 0.5*(b-a)*nodes[j] + 0.5*(b+a)
		vals[j] = f(x)
	}
	coeffs := make([]float64, m)
	for k := 0; k < m; k++ {
		s := 0.0
		for j := 0; j < m; j++ {
			theta := math.Pi * (float64(j) + 0.5) / float64(m)
			s += vals[j] * math.Cos(float64(k)*theta)
		}
		coeffs[k] = 2 * s / float64(m)
	}
	coeffs[0] /= 2
	return coeffs
}

// EvalChebyshevScalar evaluates the expansion at a point (reference for
// tests).
func EvalChebyshevScalar(coeffs []float64, a, b, x float64) float64 {
	u := (2*x - a - b) / (b - a)
	// Clenshaw recurrence.
	var b1, b2 float64
	for k := len(coeffs) - 1; k >= 1; k-- {
		b1, b2 = 2*u*b1-b2+coeffs[k], b1
	}
	return u*b1 - b2 + coeffs[0]
}

// EvalChebyshev homomorphically evaluates the Chebyshev expansion on every
// slot of ct, whose values must lie in [a, b], from a plan compiled for this
// call (polyplan.go): baby-step/giant-step Paterson–Stockmeyer over the
// Chebyshev basis, every scale tracked exactly, the result on ct's own
// scale. Consumes one level for the change of variable (which also brings a
// scale above Δ down to it), one per doubling of the degree and one for the
// coefficients; a chain too short for that is ErrLevelExhausted. The bounds
// must be finite with a < b and a finite change of variable, and the
// coefficients finite and at least one (ErrInvalidInput otherwise).
func (ev *Evaluator) EvalChebyshev(ct *Ciphertext, coeffs []float64, a, b float64) *Ciphertext {
	ev.mustValidIn("EvalPoly", ct)
	alpha, beta := 2/(b-a), -(a+b)/(b-a)
	if !(a < b) || !finite(alpha) || !finite(beta) { // an infinite bound makes β NaN
		panic(opErr("EvalPoly", ct.Level, ErrInvalidInput, "bounds [%g, %g] are not finite with a < b", a, b))
	}
	if err := checkCoeffs(ct.Level, coeffs); err != nil {
		panic(err)
	}
	return must(newPolyPlan(ev.params, true, coeffs, alpha, beta, ct.Scale).eval(ev, ct))
}

// chebDiv divides a Chebyshev-basis polynomial by T_m:
// p = q·T_m + r with deg(r) < m, using T_k = 2·T_m·T_{k−m} − T_{|k−2m|}.
func chebDiv(coeffs []float64, m int) (q, r []float64) {
	c := append([]float64(nil), coeffs...)
	d := len(c) - 1
	q = make([]float64, d-m+1)
	for k := d; k > m; k-- {
		if c[k] == 0 {
			continue
		}
		q[k-m] += 2 * c[k]
		idx := k - 2*m
		if idx < 0 {
			idx = -idx
		}
		c[idx] -= c[k]
		c[k] = 0
	}
	q[0] += c[m]
	r = c[:m]
	return q, r
}

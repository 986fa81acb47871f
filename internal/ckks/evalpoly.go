package ckks

// EvalPoly evaluates a polynomial Σ coeffs[k]·x^k (standard power basis,
// real coefficients) on every slot of ct: the plan EvalChebyshev compiles,
// with x^{a+b} = x^a·x^b as its basis rule. The result keeps ct's scale and
// sits ⌈log2 degree⌉ + 1 levels down for a Δ-scaled input (one more where the
// scale reaches √2·Δ: the input is first brought to Δ, so that every product
// still drops one prime); for high degrees or wide input ranges prefer
// EvalChebyshev, which is better conditioned. The coefficients must be
// finite and at least one (ErrInvalidInput otherwise).
func (ev *Evaluator) EvalPoly(ct *Ciphertext, coeffs []float64) *Ciphertext {
	ev.mustValidIn("EvalPoly", ct)
	if err := checkCoeffs(ct.Level, coeffs); err != nil {
		panic(err)
	}
	return must(newPolyPlan(ev.params, false, coeffs, 1, 0, ct.Scale).eval(ev, ct))
}

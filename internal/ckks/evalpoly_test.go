package ckks

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestEvalPolyQuadratic(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(60))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	// p(x) = 0.5 − x + 2x²
	coeffs := []float64{0.5, -1, 2}
	out := ev.EvalPoly(ct, coeffs)
	got := tc.decryptVec(out)
	want := make([]complex128, len(z))
	for i, x := range z {
		want[i] = 0.5 - x + 2*x*x
	}
	assertClose(t, got, want, 1e-4, "quadratic EvalPoly")
}

// deepTestContext provides an 11-level chain for depth-hungry evaluations.
func deepTestContext(t testing.TB) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testContext{params: params}
	tc.enc = NewEncoder(params)
	tc.kgen = NewKeyGenerator(params, 61)
	tc.sk = tc.kgen.GenSecretKey()
	tc.pk = tc.kgen.GenPublicKey(tc.sk)
	tc.rlk = tc.kgen.GenRelinearizationKey(tc.sk)
	tc.encr = NewEncryptor(params, tc.pk, 62)
	tc.decr = NewDecryptor(params, tc.sk)
	return tc
}

func TestEvalPolyDegreeSeven(t *testing.T) {
	tc := deepTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(61))
	// Keep inputs small so x^7 stays well-conditioned.
	z := randomComplex(rng, tc.params.Slots, 0.8)
	ct := tc.encryptVec(z)

	coeffs := []float64{0.1, 0.3, 0, -0.5, 0.2, 0, 0.05, -0.02}
	out := ev.EvalPoly(ct, coeffs)
	got := tc.decryptVec(out)
	want := make([]complex128, len(z))
	for i, x := range z {
		acc := complex(0, 0)
		pw := complex(1, 0)
		for _, c := range coeffs {
			acc += complex(c, 0) * pw
			pw *= x
		}
		want[i] = acc
	}
	assertClose(t, got, want, 1e-3, "degree-7 EvalPoly")
}

func TestEvalPolyConstantAndLinear(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(62))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	got := tc.decryptVec(ev.EvalPoly(ct, []float64{0.75}))
	want := make([]complex128, len(z))
	for i := range want {
		want[i] = 0.75
	}
	assertClose(t, got, want, 1e-5, "constant EvalPoly")

	got = tc.decryptVec(ev.EvalPoly(ct, []float64{-0.25, 3}))
	for i, x := range z {
		want[i] = complex(-0.25, 0) + 3*x
	}
	assertClose(t, got, want, 1e-4, "linear EvalPoly")
}

func TestEvalPolyAgainstChebyshev(t *testing.T) {
	// Both evaluators must agree on the same underlying function.
	tc := deepTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(63))
	z := make([]complex128, tc.params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, 0)
	}
	ct := tc.encryptVec(z)

	// f(x) = x³ − 0.5x on [-1, 1].
	power := ev.EvalPoly(ct, []float64{0, -0.5, 0, 1})
	cheb := ev.EvalChebyshev(ct, ChebyshevCoefficients(func(x float64) float64 {
		return x*x*x - 0.5*x
	}, -1, 1, 7), -1, 1)

	gp := tc.decryptVec(power)
	gc := tc.decryptVec(cheb)
	worst := 0.0
	for i := range gp {
		if e := cmplx.Abs(gp[i] - gc[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-3 {
		t.Errorf("power vs Chebyshev disagreement %g", worst)
	}
}

// TestPolyHelpersTypedErrors: the polynomial and constant helpers are
// panicking surfaces, so a bad input panics with an *OpError wrapping
// ErrInvalidInput, checked before any plan is compiled or any scalar sized —
// never with a runtime error from inside the compiler.
func TestPolyHelpersTypedErrors(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	ct := tc.encryptVec(make([]complex128, tc.params.Slots))
	inf, nan := math.Inf(1), math.NaN()
	for _, tt := range []struct {
		name string
		f    func()
	}{
		{"EvalChebyshev/empty", func() { ev.EvalChebyshev(ct, nil, -1, 1) }},
		{"EvalChebyshev/a=b", func() { ev.EvalChebyshev(ct, []float64{1, 2}, 1, 1) }},
		{"EvalChebyshev/a>b", func() { ev.EvalChebyshev(ct, []float64{1, 2}, 1, -1) }},
		{"EvalChebyshev/infinite bound", func() { ev.EvalChebyshev(ct, []float64{1, 2}, -inf, 1) }},
		{"EvalChebyshev/NaN bound", func() { ev.EvalChebyshev(ct, []float64{1, 2}, -1, nan) }},
		{"EvalChebyshev/NaN coefficient", func() { ev.EvalChebyshev(ct, []float64{1, nan}, -1, 1) }},
		{"EvalPoly/empty", func() { ev.EvalPoly(ct, nil) }},
		{"EvalPoly/infinite coefficient", func() { ev.EvalPoly(ct, []float64{0, inf}) }},
		{"EvalPoly/unsizable coefficient", func() { ev.EvalPoly(ct, []float64{0, 1e300, 1e300}) }},
		{"MulConstToScale/target too small", func() { ev.MulConstToScale(ct, 2, 1e-30) }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				rec := recover()
				err, _ := rec.(error)
				var oe *OpError
				if !errors.As(err, &oe) || !errors.Is(err, ErrInvalidInput) {
					t.Fatalf("panicked with %v (%T), want an *OpError wrapping ErrInvalidInput", rec, rec)
				}
			}()
			tt.f()
		})
	}
}

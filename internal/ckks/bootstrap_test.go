package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestChebyshevCoefficients(t *testing.T) {
	// Degree-1 fit of f(x)=x on [-1,1] is exactly T_1.
	cs := ChebyshevCoefficients(func(x float64) float64 { return x }, -1, 1, 3)
	if math.Abs(cs[1]-1) > 1e-12 || math.Abs(cs[0]) > 1e-12 || math.Abs(cs[3]) > 1e-12 {
		t.Errorf("linear fit coefficients wrong: %v", cs)
	}
	// sin fit must evaluate accurately.
	cs = ChebyshevCoefficients(math.Sin, -3, 3, 31)
	for _, x := range []float64{-3, -1.5, 0, 0.7, 2.9} {
		if got := EvalChebyshevScalar(cs, -3, 3, x); math.Abs(got-math.Sin(x)) > 1e-10 {
			t.Errorf("sin(%g): cheb %g want %g", x, got, math.Sin(x))
		}
	}
}

func TestChebDivIdentity(t *testing.T) {
	// Verify p(u) = q(u)·T_m(u) + r(u) numerically for random coefficients.
	rng := rand.New(rand.NewSource(1))
	coeffs := make([]float64, 23)
	for i := range coeffs {
		coeffs[i] = rng.Float64()*2 - 1
	}
	m := 8
	q, r := chebDiv(coeffs, m)
	for _, u := range []float64{-0.99, -0.5, 0, 0.3, 0.98} {
		lhs := EvalChebyshevScalar(coeffs, -1, 1, u)
		tm := math.Cos(float64(m) * math.Acos(u))
		rhs := EvalChebyshevScalar(q, -1, 1, u)*tm + EvalChebyshevScalar(r, -1, 1, u)
		if math.Abs(lhs-rhs) > 1e-9 {
			t.Errorf("u=%g: p=%g, q·T_m+r=%g", u, lhs, rhs)
		}
	}
}

func TestEvalChebyshevHomomorphic(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45, 45},
		LogP:     []int{52, 52, 52},
		LogScale: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 7)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	ev := NewEvaluator(params, rlk, nil)
	encr := NewEncryptor(params, pk, 8)
	decr := NewDecryptor(params, sk)

	// Evaluate sin on [-3, 3] with a degree-23 expansion (depth ~10).
	coeffs := ChebyshevCoefficients(math.Sin, -3, 3, 23)
	rng := rand.New(rand.NewSource(9))
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()*6-3, 0)
	}
	pt := enc.Encode(z, params.MaxLevel(), params.Scale)
	ct := encr.Encrypt(pt)
	out := ev.EvalChebyshev(ct, coeffs, -3, 3)

	got := enc.Decode(decr.Decrypt(out))
	worst := 0.0
	for i := range z {
		want := math.Sin(real(z[i]))
		if e := cmplx.Abs(got[i] - complex(want, 0)); e > worst {
			worst = e
		}
	}
	if worst > 1e-4 {
		t.Errorf("homomorphic sin error %g", worst)
	}
}

func bootstrapParams(t testing.TB) *Parameters { return b9Params(t, 9, 0) }

// b9Params is the benchmark's B9 chain — 28 + 5 limbs, Δ = 2^45 — on a ring
// of the given size: the shape at any N, the numbers only at log N = 9.
func b9Params(t testing.TB, logN, workers int) *Parameters {
	t.Helper()
	lit := ParametersLiteral{LogN: logN, LogQ: []int{55}, LogP: []int{52, 52, 52, 52, 52}, LogScale: 45, Workers: workers}
	for i := 0; i < 27; i++ {
		lit.LogQ = append(lit.LogQ, 45)
	}
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	return params
}

func TestBootstrap(t *testing.T) {
	params := bootstrapParams(t)
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 11)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 12)
	decr := NewDecryptor(params, sk)

	boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
	if err != nil {
		t.Fatal(err)
	}

	// Message at level 0 — exhausted, needs a refresh.
	rng := rand.New(rand.NewSource(13))
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	pt := enc.Encode(z, 0, params.Scale)
	ct := encr.Encrypt(pt)

	refreshed, err := boot.Bootstrap(ct)
	if err != nil {
		t.Fatal(err)
	}
	if refreshed.Level < 2 {
		t.Errorf("refreshed level %d, want ≥ 2", refreshed.Level)
	}

	got := enc.Decode(decr.Decrypt(refreshed))
	worst := 0.0
	for i := range z {
		if e := cmplx.Abs(got[i] - z[i]); e > worst {
			worst = e
		}
	}
	t.Logf("bootstrap precision: max slot error %.3e (~%.1f bits)", worst, -math.Log2(worst))
	if worst > math.Exp2(-12) { // the floor bench/reference_test.go holds bootstrap_deep to
		t.Errorf("bootstrap error %g too large", worst)
	}

	// The refreshed ciphertext must support further multiplications.
	ev := boot.Evaluator()
	sq := ev.Rescale(ev.MulRelin(refreshed, refreshed))
	got2 := enc.Decode(decr.Decrypt(sq))
	worst2 := 0.0
	for i := range z {
		if e := cmplx.Abs(got2[i] - z[i]*z[i]); e > worst2 {
			worst2 = e
		}
	}
	if worst2 > 5e-2 {
		t.Errorf("post-bootstrap squaring error %g", worst2)
	}
}

// TestBootstrapPrecisionSeeds is the precision gate of the one-prime-per-
// product schedule, seeded and clock-free: on four key seeds a full Bootstrap
// of a unit-circle message at the B9 shape keeps at least 13.5 bits in its
// worst slot (bench/reference_test.go's floor is 12; DESIGN.md §16 has what
// the schedule costs), and the refreshed ciphertext squares on the
// bootstrapper's own keys, cut to the raise level.
func TestBootstrapPrecisionSeeds(t *testing.T) {
	params := bootstrapParams(t)
	enc := NewEncoder(params)
	for _, seed := range []int64{5, 11, 23, 29} {
		kgen := NewKeyGenerator(params, seed)
		sk := kgen.GenSecretKey()
		boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed + 2))
		z, z2 := make([]complex128, params.Slots), make([]complex128, params.Slots)
		for i := range z {
			z[i] = cmplx.Rect(1, 2*math.Pi*rng.Float64())
			z2[i] = z[i] * z[i]
		}
		decr := NewDecryptor(params, sk)
		ct := NewEncryptor(params, kgen.GenPublicKey(sk), seed+1).Encrypt(enc.Encode(z, 0, params.Scale))
		refreshed, err := boot.Bootstrap(ct)
		if err != nil {
			t.Fatal(err)
		}
		ev := boot.Evaluator()
		sq := ev.Rescale(ev.MulRelin(refreshed, refreshed))
		bits := -math.Log2(maxErr(enc.Decode(decr.Decrypt(refreshed)), z))
		sqBits := -math.Log2(maxErr(enc.Decode(decr.Decrypt(sq)), z2))
		t.Logf("seed %d: refreshed %.3f bits, squared after it %.3f bits", seed, bits, sqBits)
		if bits < 13.5 || sqBits < 12.5 {
			t.Errorf("seed %d: refreshed %.3f bits (want ≥ 13.5), squared %.3f bits (want ≥ 12.5)", seed, bits, sqBits)
		}
	}
}

func TestModRaisePreservesPlaintext(t *testing.T) {
	params := bootstrapParams(t)
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 14)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 15)
	decr := NewDecryptor(params, sk)
	boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28, Degree: 20})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(16))
	z := randomComplex(rng, params.Slots, 1.0)
	pt := enc.Encode(z, 0, params.Scale)
	ct := encr.Encrypt(pt)
	// No higher than the plan needs: SlotToCoeff's level, one for CoeffToSlot,
	// and the (degree-20) sine's depth.
	raised := boot.ModRaise(ct)
	if want := stcLevel + 1 + boot.sine.depth(); raised.Level != want || want != stcLevel-1+boot.MinLevelBudget() {
		t.Fatalf("raised level %d, planned %d (budget %d)", raised.Level, want, boot.MinLevelBudget())
	}

	// Decrypting the raised ciphertext and reducing coefficients mod q0
	// must recover the original plaintext.
	dec := decr.Decrypt(raised)
	poly := dec.Value.CopyNew()
	params.RingQ.INTT(poly)
	q0 := params.RingQ.Moduli[0]
	level0 := params.RingQ.NewPoly(1)
	for j := 0; j < params.N; j++ {
		level0.Coeffs[0][j] = q0.Reduce(poly.Coeffs[0][j])
	}
	params.RingQ.NTT(level0)
	got := enc.Decode(&Plaintext{Value: level0, Scale: params.Scale, Level: 0})
	worst := 0.0
	for i := range z {
		if e := cmplx.Abs(got[i] - z[i]); e > worst {
			worst = e
		}
	}
	if worst > 1e-4 {
		t.Errorf("mod-raise round trip error %g", worst)
	}
}

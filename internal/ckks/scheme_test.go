package ckks

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
)

// testContext bundles everything a scheme test needs.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kgen   *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	rlk    *RelinearizationKey
	encr   *Encryptor
	decr   *Decryptor
}

func newTestContext(t testing.TB) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc := &testContext{params: params}
	tc.enc = NewEncoder(params)
	tc.kgen = NewKeyGenerator(params, 42)
	tc.sk = tc.kgen.GenSecretKey()
	tc.pk = tc.kgen.GenPublicKey(tc.sk)
	tc.rlk = tc.kgen.GenRelinearizationKey(tc.sk)
	tc.encr = NewEncryptor(params, tc.pk, 43)
	tc.decr = NewDecryptor(params, tc.sk)
	return tc
}

func (tc *testContext) encryptVec(z []complex128) *Ciphertext {
	pt := tc.enc.Encode(z, tc.params.MaxLevel(), tc.params.Scale)
	return tc.encr.Encrypt(pt)
}

func (tc *testContext) decryptVec(ct *Ciphertext) []complex128 {
	return tc.enc.Decode(tc.decr.Decrypt(ct))
}

func assertClose(t *testing.T, got, want []complex128, tol float64, msg string) {
	t.Helper()
	worst := 0.0
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	if worst > tol {
		t.Errorf("%s: max error %g > %g", msg, worst, tol)
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t)
	rng := rand.New(rand.NewSource(1))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	got := tc.decryptVec(tc.encryptVec(z))
	assertClose(t, got, z, 1e-6, "encrypt/decrypt")
}

func TestEncryptZero(t *testing.T) {
	tc := newTestContext(t)
	ct := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale)
	got := tc.decryptVec(ct)
	zero := make([]complex128, tc.params.Slots)
	assertClose(t, got, zero, 1e-6, "encrypt zero")
}

func TestHAddCiphertext(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(2))
	z1 := randomComplex(rng, tc.params.Slots, 1.0)
	z2 := randomComplex(rng, tc.params.Slots, 1.0)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	got := tc.decryptVec(ev.Add(tc.encryptVec(z1), tc.encryptVec(z2)))
	assertClose(t, got, want, 1e-6, "HAdd ct+ct")

	// Sub and Neg as well.
	for i := range want {
		want[i] = z1[i] - z2[i]
	}
	got = tc.decryptVec(ev.Sub(tc.encryptVec(z1), tc.encryptVec(z2)))
	assertClose(t, got, want, 1e-6, "HSub")

	for i := range want {
		want[i] = -z1[i]
	}
	got = tc.decryptVec(ev.Neg(tc.encryptVec(z1)))
	assertClose(t, got, want, 1e-6, "Neg")
}

func TestHAddPlain(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	rng := rand.New(rand.NewSource(3))
	z1 := randomComplex(rng, tc.params.Slots, 1.0)
	z2 := randomComplex(rng, tc.params.Slots, 1.0)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	pt := tc.enc.Encode(z2, tc.params.MaxLevel(), tc.params.Scale)
	got := tc.decryptVec(ev.AddPlain(tc.encryptVec(z1), pt))
	assertClose(t, got, want, 1e-6, "HAdd ct+pt")
}

func TestPMultAndRescale(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	rng := rand.New(rand.NewSource(4))
	z1 := randomComplex(rng, tc.params.Slots, 1.0)
	z2 := randomComplex(rng, tc.params.Slots, 1.0)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	pt := tc.enc.Encode(z2, tc.params.MaxLevel(), tc.params.Scale)
	prod := ev.MulPlain(tc.encryptVec(z1), pt)
	if prod.Scale <= tc.params.Scale {
		t.Error("PMult should square the scale")
	}
	res := ev.Rescale(prod)
	if res.Level != tc.params.MaxLevel()-1 {
		t.Errorf("rescale level=%d want %d", res.Level, tc.params.MaxLevel()-1)
	}
	got := tc.decryptVec(res)
	assertClose(t, got, want, 1e-5, "PMult+Rescale")
}

func TestCMultRelin(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(5))
	z1 := randomComplex(rng, tc.params.Slots, 1.0)
	z2 := randomComplex(rng, tc.params.Slots, 1.0)
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] * z2[i]
	}
	prod := ev.MulRelin(tc.encryptVec(z1), tc.encryptVec(z2))
	res := ev.Rescale(prod)
	got := tc.decryptVec(res)
	assertClose(t, got, want, 1e-4, "CMult+Relin+Rescale")
}

func TestMultiplicativeDepth(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, tc.rlk, nil)
	rng := rand.New(rand.NewSource(6))
	z := randomComplex(rng, tc.params.Slots, 1.0)

	// Square repeatedly: z^(2^d) for d = chain depth − 1.
	ct := tc.encryptVec(z)
	want := append([]complex128(nil), z...)
	for d := 0; d < 3; d++ {
		ct = ev.Rescale(ev.MulRelin(ct, ct))
		for i := range want {
			want[i] *= want[i]
		}
	}
	got := tc.decryptVec(ct)
	assertClose(t, got, want, 1e-2, "depth-3 squaring")
}

func TestRotation(t *testing.T) {
	tc := newTestContext(t)
	steps := []int{1, 2, 7, -1, tc.params.Slots / 2}
	rtks := tc.kgen.GenRotationKeys(tc.sk, steps, false)
	ev := NewEvaluator(tc.params, nil, rtks)
	rng := rand.New(rand.NewSource(7))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	n := tc.params.Slots
	for _, s := range steps {
		want := make([]complex128, n)
		for i := range want {
			want[i] = z[((i+s)%n+n)%n]
		}
		got := tc.decryptVec(ev.Rotate(ct, s))
		assertClose(t, got, want, 1e-4, "rotation")
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, nil, true)
	ev := NewEvaluator(tc.params, nil, rtks)
	rng := rand.New(rand.NewSource(8))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	want := make([]complex128, len(z))
	for i := range want {
		want[i] = cmplx.Conj(z[i])
	}
	got := tc.decryptVec(ev.Conjugate(tc.encryptVec(z)))
	assertClose(t, got, want, 1e-4, "conjugate")
}

func TestRotationAtLowerLevel(t *testing.T) {
	tc := newTestContext(t)
	rtks := tc.kgen.GenRotationKeys(tc.sk, []int{3}, false)
	ev := NewEvaluator(tc.params, tc.rlk, rtks)
	rng := rand.New(rand.NewSource(9))
	z := randomComplex(rng, tc.params.Slots, 1.0)

	// Burn two levels, then rotate: keys must work at any level.
	ct := tc.encryptVec(z)
	pt := tc.enc.Encode(onesVec(tc.params.Slots), ct.Level, tc.params.Scale)
	ct = ev.Rescale(ev.MulPlain(ct, pt))
	pt = tc.enc.Encode(onesVec(tc.params.Slots), ct.Level, ct.Scale)
	ct2 := ev.MulPlain(ct, pt)
	ct2.Scale = ct.Scale * ct.Scale // treat as Δ² for rescale bookkeeping
	ct = ev.Rescale(ct2)

	n := tc.params.Slots
	want := make([]complex128, n)
	for i := range want {
		want[i] = z[(i+3)%n]
	}
	got := tc.decryptVec(ev.Rotate(ct, 3))
	assertClose(t, got, want, 1e-3, "rotation at reduced level")
}

func onesVec(n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = 1
	}
	return v
}

func TestKeySwitchToFreshKey(t *testing.T) {
	// Switch a ciphertext from sk to sk2 and decrypt under sk2.
	tc := newTestContext(t)
	sk2 := tc.kgen.GenSecretKey()
	// Key encrypting P·s (old secret) under s2.
	swk := tc.kgen.genSwitchingKey(tc.sk.Value.Q, sk2, tc.params.MaxLevel())
	ev := NewEvaluator(tc.params, nil, nil)
	rng := rand.New(rand.NewSource(10))
	z := randomComplex(rng, tc.params.Slots, 1.0)
	ct := tc.encryptVec(z)

	// The generic KeySwitch assumes the key target matches ct's C1 secret,
	// but genSwitchingKey encrypts under the *generator's* secret argument:
	// we built swk = Enc_{s2}(P·s), so the switched ciphertext decrypts
	// under sk2.
	swct := ev.KeySwitch(ct, swk)
	dec2 := NewDecryptor(tc.params, sk2)
	got := tc.enc.Decode(dec2.Decrypt(swct))
	assertClose(t, got, z, 1e-4, "keyswitch to fresh key")
}

// TestCutKeyCoversItsLevels: a relinearisation, rotation or explicit
// switching key generated for level 2 of a 5-limb chain (3 Q limbs, 2 digits)
// is the full key restricted — at its level and below it switches correctly —
// and above it the op's precondition refuses it as ErrKeyMissing, naming both
// levels, before any kernel indexes a row the key does not hold.
func TestCutKeyCoversItsLevels(t *testing.T) {
	tc := newTestContext(t)
	params := tc.params
	const cut = 2
	sk2 := tc.kgen.GenSecretKey()
	swk := tc.kgen.genSwitchingKey(tc.sk.Value.Q, sk2, cut)
	ev := NewEvaluator(params, tc.kgen.genRelinearizationKey(tc.sk, cut), tc.kgen.genRotationKeys(tc.sk, []int{1}, false, cut))

	n := params.Slots
	z := randomComplex(rand.New(rand.NewSource(12)), n, 1.0)
	sq, rot := make([]complex128, n), make([]complex128, n)
	for i := range z {
		sq[i], rot[i] = z[i]*z[i], z[(i+1)%n]
	}
	ops := []struct {
		name string
		run  func(ct *Ciphertext) (*Ciphertext, error)
		decr *Decryptor
		want []complex128
	}{
		{"MulRelin", func(ct *Ciphertext) (*Ciphertext, error) { return ev.TryMulRelinInto(nil, ct, ct) }, tc.decr, sq},
		{"Rotate", func(ct *Ciphertext) (*Ciphertext, error) { return ev.TryRotateInto(nil, ct, 1) }, tc.decr, rot},
		{"KeySwitch", func(ct *Ciphertext) (*Ciphertext, error) {
			return ev.TryKeySwitchInto(NewCiphertext(params, ct.Level), ct, swk)
		}, NewDecryptor(params, sk2), z},
	}
	for _, op := range ops {
		for level := cut - 1; level <= cut+1; level++ {
			out, err := op.run(ev.DropLevel(tc.encryptVec(z), level))
			if level <= cut {
				if err != nil {
					t.Fatalf("%s at level %d on a key cut at %d: %v", op.name, level, cut, err)
				}
				assertClose(t, tc.enc.Decode(op.decr.Decrypt(out)), op.want, 1e-4, op.name+" on a cut key")
			} else if !errors.Is(err, ErrKeyMissing) || !strings.Contains(err.Error(), "key covers levels ≤ 2, op runs at 3") {
				t.Errorf("%s at level %d on a key cut at %d: %v, want ErrKeyMissing naming both levels", op.name, level, cut, err)
			}
		}
	}
}

func TestDropLevelAndAlign(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	rng := rand.New(rand.NewSource(11))
	z1 := randomComplex(rng, tc.params.Slots, 1.0)
	z2 := randomComplex(rng, tc.params.Slots, 1.0)
	ct1 := tc.encryptVec(z1)
	ct2 := ev.DropLevel(tc.encryptVec(z2), 2)
	sum := ev.Add(ct1, ct2)
	if sum.Level != 2 {
		t.Errorf("aligned level=%d want 2", sum.Level)
	}
	want := make([]complex128, len(z1))
	for i := range want {
		want[i] = z1[i] + z2[i]
	}
	assertClose(t, tc.decryptVec(sum), want, 1e-6, "add after drop")
}

func TestScaleMismatchPanics(t *testing.T) {
	tc := newTestContext(t)
	ev := NewEvaluator(tc.params, nil, nil)
	ct1 := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale)
	ct2 := tc.encr.EncryptZero(tc.params.MaxLevel(), tc.params.Scale*2)
	defer func() {
		if recover() == nil {
			t.Fatal("scale mismatch should panic")
		}
	}()
	ev.Add(ct1, ct2)
}

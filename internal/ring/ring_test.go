package ring

import (
	"math/big"
	"math/rand"
	"testing"

	"poseidon/internal/automorph"
	"poseidon/internal/numeric"
)

func testRing(t testing.TB, n, limbs int) *Ring {
	t.Helper()
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	ps, err := numeric.GenerateNTTPrimes(45, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRing(n, ps)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func randPoly(r *Ring, rng *rand.Rand, limbs int, isNTT bool) *Poly {
	p := r.NewPoly(limbs)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = rng.Uint64() % r.Moduli[i].Q
		}
	}
	p.IsNTT = isNTT
	return p
}

func TestNewRingErrors(t *testing.T) {
	if _, err := NewRing(16, nil); err == nil {
		t.Error("empty moduli should error")
	}
	if _, err := NewRing(12, []uint64{97}); err == nil {
		t.Error("non-power-of-two N should error")
	}
	if _, err := NewRing(16, []uint64{97, 97}); err == nil {
		t.Error("duplicate moduli should error")
	}
	if _, err := NewRing(16, []uint64{19}); err == nil {
		t.Error("non-NTT-friendly modulus should error")
	}
}

func TestPolyBasics(t *testing.T) {
	r := testRing(t, 32, 3)
	p := r.NewPoly(3)
	if p.Level() != 2 {
		t.Errorf("level=%d want 2", p.Level())
	}
	rng := rand.New(rand.NewSource(1))
	q := randPoly(r, rng, 3, false)
	cp := q.CopyNew()
	if !cp.Equal(q) {
		t.Error("copy should equal original")
	}
	cp.Coeffs[0][0] ^= 1
	if cp.Equal(q) {
		t.Error("mutated copy should differ")
	}
	cp.Coeffs[0][0] ^= 1
	cp.IsNTT = !cp.IsNTT
	if cp.Equal(q) {
		t.Error("domain flag should participate in equality")
	}
	q.Coeffs = q.Coeffs[:2]
	if q.Level() != 1 {
		t.Errorf("level after drop=%d want 1", q.Level())
	}
}

func TestAddSubNegRoundTrip(t *testing.T) {
	r := testRing(t, 64, 3)
	rng := rand.New(rand.NewSource(2))
	a := randPoly(r, rng, 3, false)
	b := randPoly(r, rng, 3, false)
	sum := r.NewPoly(3)
	r.Add(sum, a, b)
	back := r.NewPoly(3)
	r.Sub(back, sum, b)
	if !back.Equal(a) {
		t.Error("(a+b)-b != a")
	}
	neg := r.NewPoly(3)
	r.Neg(neg, a)
	zero := r.NewPoly(3)
	r.Add(zero, a, neg)
	for i := range zero.Coeffs {
		for j := range zero.Coeffs[i] {
			if zero.Coeffs[i][j] != 0 {
				t.Fatal("a + (-a) != 0")
			}
		}
	}
}

func TestNTTDomainTracking(t *testing.T) {
	r := testRing(t, 32, 2)
	rng := rand.New(rand.NewSource(3))
	a := randPoly(r, rng, 2, false)
	orig := a.CopyNew()
	r.NTT(a)
	if !a.IsNTT {
		t.Error("IsNTT should be set")
	}
	r.INTT(a)
	if !a.Equal(orig) {
		t.Error("NTT/INTT round trip failed")
	}
	func() {
		defer func() { recover() }()
		r.INTT(a)
		t.Error("INTT on coeff domain should panic")
	}()
}

func TestMulCoeffwiseIsNegacyclicProduct(t *testing.T) {
	r := testRing(t, 16, 2)
	rng := rand.New(rand.NewSource(4))
	a := randPoly(r, rng, 2, false)
	b := randPoly(r, rng, 2, false)

	// Reference: schoolbook negacyclic per limb.
	want := r.NewPoly(2)
	for i := range want.Coeffs {
		copy(want.Coeffs[i], r.Tables[i].NegacyclicConvolution(a.Coeffs[i], b.Coeffs[i]))
	}

	r.NTT(a)
	r.NTT(b)
	c := r.NewPoly(2)
	r.MulCoeffwise(c, a, b)
	r.INTT(c)
	if !c.Equal(want) {
		t.Error("NTT product != schoolbook negacyclic product")
	}
}

// TestAutomorphismLimbwise: the ring's automorphism permutes the NTT image,
// limb by limb, into the NTT image of the map's definition (automorph.Naive
// on each limb), and composing it with the inverse Galois element restores
// the original.
func TestAutomorphismLimbwise(t *testing.T) {
	r := testRing(t, 64, 2)
	rng := rand.New(rand.NewSource(7))
	a := randPoly(r, rng, 2, false)
	want := r.NewPoly(2)
	for i := range a.Coeffs {
		automorph.Naive(want.Coeffs[i], a.Coeffs[i], 5, r.Moduli[i])
	}
	r.NTT(want)
	ntt := a.CopyNew()
	r.NTT(ntt)
	dst := r.NewPoly(2)
	r.AutomorphismNTT(dst, ntt, 5)
	if !dst.Equal(want) {
		t.Error("NTT-domain automorphism differs from the naive map")
	}
	gInv := uint64(0)
	for g := uint64(1); g < uint64(2*r.N); g += 2 {
		if g*5%uint64(2*r.N) == 1 {
			gInv = g
			break
		}
	}
	back := r.NewPoly(2)
	r.AutomorphismNTT(back, dst, gInv)
	if !back.Equal(ntt) {
		t.Error("automorphism inverse does not restore input")
	}
}

func TestBigCenteredRoundTrip(t *testing.T) {
	r := testRing(t, 8, 3)
	p := r.NewPoly(3)
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(123456789), big.NewInt(-987654321),
	}
	for j, v := range vals {
		for i := range p.Coeffs {
			p.Coeffs[i][j] = new(big.Int).Mod(v, new(big.Int).SetUint64(r.Moduli[i].Q)).Uint64()
		}
	}
	crt := r.NewCRT(3)
	for j, v := range vals {
		if got := crt.Centered(p, j); got.Cmp(v) != 0 {
			t.Errorf("coefficient %d: got %v want %v", j, got, v)
		}
	}
}

func TestCheckPanicsOnMismatch(t *testing.T) {
	r := testRing(t, 16, 3)
	a := r.NewPoly(3)
	b := r.NewPoly(2)
	defer func() {
		if recover() == nil {
			t.Fatal("limb mismatch should panic")
		}
	}()
	r.Add(a, a, b)
}

package numeric

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// oddTestModuli are the moduli the Montgomery path is defined for (all NTT
// moduli are odd primes; q=2 is excluded by construction).
func oddTestModuli() []uint64 {
	var out []uint64
	for _, q := range testModuli {
		if q%2 == 1 {
			out = append(out, q)
		}
	}
	return out
}

// The REDC constant must be the exact inverse of q modulo 2^64.
func TestMontgomeryInverse(t *testing.T) {
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		if got := q * m.QInv; got != 1 {
			t.Errorf("q=%d: q·QInv = %d mod 2^64, want 1", q, got)
		}
	}
}

// The Montgomery product must be bit-identical to the Barrett Mul for every
// residue pair — this is what licenses VecMontMul in the ring's elementwise
// loops. Every pair of edge residues, then random ones, one vector each.
func TestMontMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		var a, b []uint64
		edge := []uint64{0, 1, q - 1, q / 2, q/2 + 1}
		for _, x := range edge {
			for _, y := range edge {
				a, b = append(a, x), append(b, y)
			}
		}
		for i := 0; i < 500; i++ {
			a, b = append(a, rng.Uint64()%q), append(b, rng.Uint64()%q)
		}
		got := make([]uint64, len(a))
		m.VecMontMul(got, a, b)
		for j := range got {
			if want := m.Mul(a[j], b[j]); got[j] != want {
				t.Fatalf("q=%d VecMontMul(%d,%d)=%d want %d", q, a[j], b[j], got[j], want)
			}
		}
	}
}

// MForm is a·2^64 mod q — the form the rns tables store their constants in:
// multiplying by 2^-64 mod q recovers a, and it carries products to
// products, MForm(a)·MForm(b) = MForm(MForm(a·b)).
func TestMFormRoundTripAndHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		rInv := m.Inv(m.RModQ)
		for _, a := range []uint64{0, 1, q - 1} {
			if got := m.Mul(m.MForm(a), rInv); got != a {
				t.Fatalf("q=%d MForm(%d)·2^-64=%d", q, a, got)
			}
		}
		for i := 0; i < 300; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got := m.Mul(m.MForm(a), rInv); got != a {
				t.Fatalf("q=%d MForm(%d)·2^-64=%d", q, a, got)
			}
			if got, want := m.Mul(m.MForm(a), m.MForm(b)), m.MForm(m.MForm(m.Mul(a, b))); got != want {
				t.Fatalf("q=%d MForm homomorphism broken for (%d,%d)", q, a, b)
			}
		}
	}
}

// The vector Montgomery kernel (the ring's elementwise path, PMult included)
// must be bit-identical to the scalar Barrett reference at every offset of
// an odd-length vector, on edge residues as on random ones.
func TestVecMontMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 33 // odd length: no accidental alignment
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		a := make([]uint64, n)
		b := make([]uint64, n)
		for j := 0; j < n; j++ {
			a[j], b[j] = rng.Uint64()%q, rng.Uint64()%q
		}
		copy(a, []uint64{0, 1, q - 1, q / 2, q - 1})
		copy(b, []uint64{q - 1, 0, q - 1, 1, q - 1})
		got := make([]uint64, n)
		m.VecMontMul(got, a, b)
		for j := 0; j < n; j++ {
			if want := m.Mul(a[j], b[j]); got[j] != want {
				t.Fatalf("q=%d VecMontMul[%d]=%d want %d (a=%d b=%d)", q, j, got[j], want, a[j], b[j])
			}
		}
	}
}

// The Shoup scalar kernels against the same reference, edge residues and the
// in-place accumulate included.
func TestVecMulShoupMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 33
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		a, acc := make([]uint64, n), make([]uint64, n)
		for j := range a {
			a[j], acc[j] = rng.Uint64()%q, rng.Uint64()%q
		}
		a[0], acc[0], a[1] = q-1, q-1, 0
		for _, w := range []uint64{0, 1, q - 1, rng.Uint64() % q} {
			ws := m.ShoupConstant(w)
			c := make([]uint64, n)
			m.VecMulShoup(c, a, w, ws)
			got := append([]uint64(nil), acc...)
			m.VecMulShoupAdd(got, got, a, w, ws)
			for j := range a {
				if want := m.Mul(a[j], w); c[j] != want || got[j] != m.Add(acc[j], want) {
					t.Fatalf("q=%d w=%d [%d]: product %d want %d, accumulated %d want %d", q, w, j, c[j], want, got[j], m.Add(acc[j], want))
				}
			}
		}
	}
}

// Property over full residue range on a 61-bit modulus.
func TestMontMulProperty(t *testing.T) {
	m := NewModulus(2305843009213554689)
	f := func(a, b uint64) bool {
		a, b = a%m.Q, b%m.Q
		c := []uint64{0}
		m.VecMontMul(c, []uint64{a}, []uint64{b})
		return c[0] == m.Mul(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzMontgomeryRoundTrip drives the Montgomery kernels with arbitrary
// 64-bit words: the lift MForm and the product VecMontMul, each checked
// against math/big as the arbiter, and the product against the Barrett Mul.
func FuzzMontgomeryRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2305843009213554688))
	f.Add(^uint64(0), uint64(12345))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		for _, q := range []uint64{17, 998244353, 2305843009213554689} {
			m := NewModulus(q)
			ar, br := a%q, b%q
			bq := new(big.Int).SetUint64(q)
			lift := new(big.Int).Lsh(new(big.Int).SetUint64(ar), 64)
			if got, want := m.MForm(ar), lift.Mod(lift, bq).Uint64(); got != want {
				t.Fatalf("q=%d: MForm(%d)=%d want %d", q, ar, got, want)
			}
			c := []uint64{0}
			m.VecMontMul(c, []uint64{ar}, []uint64{br})
			want := new(big.Int).Mul(new(big.Int).SetUint64(ar), new(big.Int).SetUint64(br))
			if c[0] != want.Mod(want, bq).Uint64() {
				t.Fatalf("q=%d: VecMontMul(%d,%d)=%d want %v", q, ar, br, c[0], want)
			}
			if c[0] != m.Mul(ar, br) {
				t.Fatalf("q=%d: VecMontMul and Mul disagree on (%d,%d)", q, ar, br)
			}
		}
	})
}

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

// MontMul must be bit-identical to the Barrett Mul for every residue pair —
// this is what licenses swapping it into the ring elementwise loops.
func TestMontMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		edge := []uint64{0, 1, q - 1, q / 2, q/2 + 1}
		for _, a := range edge {
			for _, b := range edge {
				if got, want := m.MontMul(a, b), m.Mul(a, b); got != want {
					t.Fatalf("q=%d MontMul(%d,%d)=%d want %d", q, a, b, got, want)
				}
			}
		}
		for i := 0; i < 500; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got, want := m.MontMul(a, b), m.Mul(a, b); got != want {
				t.Fatalf("q=%d MontMul(%d,%d)=%d want %d", q, a, b, got, want)
			}
		}
	}
}

// MForm/IMForm are mutual inverses, and MRed in the Montgomery domain
// realizes the ring product: IMForm(MRed(MForm(a), MForm(b))·2^64...) — the
// compact identity is MRed(MForm(a), MForm(b)) == MForm(a·b mod q).
func TestMFormRoundTripAndHomomorphism(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		for _, a := range []uint64{0, 1, q - 1} {
			if got := m.IMForm(m.MForm(a)); got != a {
				t.Fatalf("q=%d IMForm(MForm(%d))=%d", q, a, got)
			}
		}
		for i := 0; i < 300; i++ {
			a, b := rng.Uint64()%q, rng.Uint64()%q
			if got := m.IMForm(m.MForm(a)); got != a {
				t.Fatalf("q=%d IMForm(MForm(%d))=%d", q, a, got)
			}
			if got, want := m.MRed(m.MForm(a), m.MForm(b)), m.MForm(m.Mul(a, b)); got != want {
				t.Fatalf("q=%d MRed homomorphism broken for (%d,%d)", q, a, b)
			}
		}
	}
}

// MRedLazy stays within its advertised (0, 2q) band and agrees with MRed
// modulo q, including at the residue edges and lazy inputs just below 2q.
func TestMRedLazyBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		twoQ := 2 * q
		cases := [][2]uint64{
			{0, 0}, {1, 1}, {q - 1, q - 1}, {q - 1, twoQ - 1}, {1, twoQ - 1},
		}
		for i := 0; i < 300; i++ {
			cases = append(cases, [2]uint64{rng.Uint64() % q, rng.Uint64() % twoQ})
		}
		for _, c := range cases {
			a, b := c[0], c[1]
			lazy := m.MRedLazy(a, b)
			if lazy > twoQ {
				t.Fatalf("q=%d MRedLazy(%d,%d)=%d > 2q", q, a, b, lazy)
			}
			if m.Reduce(lazy) != m.MRed(a, b) {
				t.Fatalf("q=%d MRedLazy(%d,%d) incongruent with MRed", q, a, b)
			}
		}
	}
}

// The vector Montgomery kernels (the ring's elementwise path, PMult
// included) must be bit-identical to the scalar Barrett reference, on edge
// residues as on random ones.
func TestVecMontMulMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const n = 33 // odd length: no accidental alignment
	for _, q := range oddTestModuli() {
		m := NewModulus(q)
		a := make([]uint64, n)
		b := make([]uint64, n)
		acc := make([]uint64, n)
		for j := 0; j < n; j++ {
			a[j], b[j], acc[j] = rng.Uint64()%q, rng.Uint64()%q, rng.Uint64()%q
		}
		copy(a, []uint64{0, 1, q - 1, q / 2, q - 1})
		copy(b, []uint64{q - 1, 0, q - 1, 1, q - 1})
		copy(acc, []uint64{q - 1, 0, q - 1, q - 1, 0})
		for _, k := range []struct {
			name string
			run  func(c, a, b []uint64)
			want func(j int) uint64
			init []uint64
		}{
			{"VecMontMul", m.VecMontMul, func(j int) uint64 { return m.Mul(a[j], b[j]) }, make([]uint64, n)},
			{"VecMontMulAdd", m.VecMontMulAdd, func(j int) uint64 { return m.Add(acc[j], m.Mul(a[j], b[j])) }, acc},
		} {
			got := append([]uint64(nil), k.init...)
			k.run(got, a, b)
			for j := 0; j < n; j++ {
				if want := k.want(j); got[j] != want {
					t.Fatalf("q=%d %s[%d]=%d want %d (a=%d b=%d)", q, k.name, j, got[j], want, a[j], b[j])
				}
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
		return m.MontMul(a, b) == m.Mul(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzMontgomeryRoundTrip drives the full Montgomery cycle with arbitrary
// 64-bit words: lift, multiply in-domain, drop, and cross-check against the
// Barrett reference with math/big as the arbiter.
func FuzzMontgomeryRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2305843009213554688))
	f.Add(^uint64(0), uint64(12345))
	f.Fuzz(func(t *testing.T, a, b uint64) {
		for _, q := range []uint64{17, 998244353, 2305843009213554689} {
			m := NewModulus(q)
			ar, br := a%q, b%q
			if got := m.IMForm(m.MForm(ar)); got != ar {
				t.Fatalf("q=%d: MForm/IMForm round trip %d -> %d", q, ar, got)
			}
			got := m.MontMul(ar, br)
			want := new(big.Int).Mul(new(big.Int).SetUint64(ar), new(big.Int).SetUint64(br))
			want.Mod(want, new(big.Int).SetUint64(q))
			if got != want.Uint64() {
				t.Fatalf("q=%d: MontMul(%d,%d)=%d want %v", q, ar, br, got, want)
			}
			if got != m.Mul(ar, br) {
				t.Fatalf("q=%d: MontMul and Mul disagree on (%d,%d)", q, ar, br)
			}
		}
	})
}

func BenchmarkMontMul(b *testing.B) {
	m := NewModulus(1152921504606584833)
	x, y := uint64(123456789123456789)%m.Q, uint64(987654321987654321)%m.Q
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.MontMul(s^x, y)
	}
	sink = s
}

func BenchmarkMRed(b *testing.B) {
	m := NewModulus(1152921504606584833)
	x := uint64(123456789123456789) % m.Q
	y := m.MForm(uint64(987654321987654321) % m.Q)
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.MRed(s^x, y)
	}
	sink = s
}

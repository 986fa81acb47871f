package numeric

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

var testModuli = []uint64{
	3, 17, 257, 65537,
	1152921504606584833, // 60-bit NTT prime
	2305843009213554689, // 61-bit NTT prime
	1073479681,          // ~30-bit
	998244353,           // classic NTT prime
	1099510054913,       // 40-bit NTT prime: lanes, a run of 4095
	35184371138561,      // 45-bit NTT prime: lanes, a run of 4095
	1125899904679937,    // NTT prime just under 2^50: lanes, a run of 12
}

func TestNewModulusPanics(t *testing.T) {
	cases := []uint64{0, 4, 1 << 62}
	for _, q := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModulus(%d) should panic", q)
				}
			}()
			NewModulus(q)
		}()
	}
}

func TestAddSubNeg(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range testModuli {
		m := NewModulus(q)
		for i := 0; i < 200; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			if got, want := m.Add(a, b), (a%q+b%q)%q; got != want {
				t.Fatalf("q=%d Add(%d,%d)=%d want %d", q, a, b, got, want)
			}
			wantSub := new(big.Int).Mod(new(big.Int).Sub(big.NewInt(0).SetUint64(a), big.NewInt(0).SetUint64(b)), big.NewInt(0).SetUint64(q)).Uint64()
			if got := m.Sub(a, b); got != wantSub {
				t.Fatalf("q=%d Sub(%d,%d)=%d want %d", q, a, b, got, wantSub)
			}
			if got := m.Add(m.Neg(a), a); got != 0 {
				t.Fatalf("q=%d Neg(%d)+%d=%d want 0", q, a, a, got)
			}
		}
	}
}

func TestMulAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, q := range testModuli {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		for i := 0; i < 500; i++ {
			a := rng.Uint64() % q
			b := rng.Uint64() % q
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			want.Mod(want, bq)
			if got := m.Mul(a, b); got != want.Uint64() {
				t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, a, b, got, want.Uint64())
			}
		}
	}
}

func TestMulEdgeCases(t *testing.T) {
	for _, q := range testModuli {
		m := NewModulus(q)
		edge := []uint64{0, 1, q - 1, q / 2, q/2 + 1}
		bq := new(big.Int).SetUint64(q)
		for _, a := range edge {
			for _, b := range edge {
				want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
				want.Mod(want, bq)
				if got := m.Mul(a, b); got != want.Uint64() {
					t.Fatalf("q=%d Mul(%d,%d)=%d want %d", q, a, b, got, want.Uint64())
				}
			}
		}
	}
}

func TestMulShoup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, q := range testModuli {
		m := NewModulus(q)
		for i := 0; i < 300; i++ {
			a := rng.Uint64() % q
			w := rng.Uint64() % q
			ws := m.ShoupConstant(w)
			if got, want := m.MulShoup(a, w, ws), m.Mul(a, w); got != want {
				t.Fatalf("q=%d MulShoup(%d,%d)=%d want %d", q, a, w, got, want)
			}
		}
	}
}

func TestPowInv(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, q := range testModuli {
		if !IsPrime(q) {
			continue
		}
		m := NewModulus(q)
		for i := 0; i < 100; i++ {
			a := 1 + rng.Uint64()%(q-1)
			inv := m.Inv(a)
			if got := m.Mul(a, inv); got != 1 {
				t.Fatalf("q=%d a=%d: a·a^-1=%d want 1", q, a, got)
			}
		}
		if got := m.Pow(0, 0); got != 1 {
			t.Fatalf("q=%d: 0^0=%d want 1 (empty product)", q, got)
		}
		if got := m.Pow(5%q, 0); got != 1 {
			t.Fatalf("q=%d: a^0=%d want 1", q, got)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	m := NewModulus(17)
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) should panic")
		}
	}()
	m.Inv(0)
}

func TestReduceSignedCentered(t *testing.T) {
	m := NewModulus(97)
	cases := []struct {
		in   int64
		want uint64
	}{{0, 0}, {1, 1}, {-1, 96}, {97, 0}, {-97, 0}, {98, 1}, {-98, 96}, {195, 1}}
	for _, c := range cases {
		if got := m.ReduceSigned(c.in); got != c.want {
			t.Errorf("ReduceSigned(%d)=%d want %d", c.in, got, c.want)
		}
	}
	for a := uint64(0); a < 97; a++ {
		c := m.Centered(a)
		if c <= -49 || c > 48 {
			t.Errorf("Centered(%d)=%d out of (-q/2, q/2]", a, c)
		}
		if m.ReduceSigned(c) != a {
			t.Errorf("Centered(%d) does not round-trip", a)
		}
	}
}

// Property: Barrett reduction agrees with math/big for arbitrary 128-bit
// inputs below q·2^64.
func TestReduceWideProperty(t *testing.T) {
	for _, q := range testModuli {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		f := func(hi, lo uint64) bool {
			hi %= q // keep x < q·2^64
			x := new(big.Int).SetUint64(hi)
			x.Lsh(x, 64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bq).Uint64()
			return m.ReduceWide(hi, lo) == want
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("q=%d: %v", q, err)
		}
	}
}

// Property: (a·b)·c == a·(b·c) mod q.
func TestMulAssociativeProperty(t *testing.T) {
	m := NewModulus(1152921504606584833)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Q, b%m.Q, c%m.Q
		return m.Mul(m.Mul(a, b), c) == m.Mul(a, m.Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: distributivity a·(b+c) == a·b + a·c mod q.
func TestMulDistributiveProperty(t *testing.T) {
	m := NewModulus(2305843009213554689)
	f := func(a, b, c uint64) bool {
		a, b, c = a%m.Q, b%m.Q, c%m.Q
		return m.Mul(a, m.Add(b, c)) == m.Add(m.Mul(a, b), m.Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMulBarrett(b *testing.B) {
	m := NewModulus(1152921504606584833)
	x, y := uint64(123456789123456789)%m.Q, uint64(987654321987654321)%m.Q
	var s uint64
	for i := 0; i < b.N; i++ {
		s = m.Mul(s^x, y)
	}
	sink = s
}

func BenchmarkMulShoup(b *testing.B) {
	m := NewModulus(1152921504606584833)
	w := uint64(987654321987654321) % m.Q
	ws := m.ShoupConstant(w)
	var s uint64
	x := uint64(123456789123456789) % m.Q
	for i := 0; i < b.N; i++ {
		s = m.MulShoup(s^x, w, ws)
	}
	sink = s
}

var sink uint64

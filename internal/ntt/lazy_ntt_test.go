package ntt

import (
	"math/rand"
	"testing"
)

// edgePolys builds inputs that pin the lazy kernels' band edges: all-zero,
// all-one, all q−1, alternating {0, q−1}, and a few random vectors.
func edgePolys(rng *rand.Rand, n int, q uint64) [][]uint64 {
	fill := func(v uint64) []uint64 {
		a := make([]uint64, n)
		for i := range a {
			a[i] = v
		}
		return a
	}
	alt := make([]uint64, n)
	for i := range alt {
		if i%2 == 1 {
			alt[i] = q - 1
		}
	}
	polys := [][]uint64{fill(0), fill(1), fill(q - 1), alt}
	for i := 0; i < 4; i++ {
		polys = append(polys, randomPoly(rng, n, q))
	}
	return polys
}

// Table.Forward — the default-degree fused plan — must be bit-identical to
// the strict reference on every size (N = 2 and 4 run as a lone remainder
// pass, deeper transforms as full radix-8 passes) at every band edge.
func TestForwardLazyMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{2, 4, 8, 16, 256, 1024} {
		for _, bitSize := range []int{30, 45, 59, 61} {
			tab := mustTable(t, n, bitSize)
			for pi, p := range edgePolys(rng, n, tab.Mod.Q) {
				lazy := append([]uint64(nil), p...)
				strict := append([]uint64(nil), p...)
				tab.Forward(lazy)
				tab.ForwardStrict(strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("n=%d bits=%d poly=%d: Forward diverges from strict at %d: %d != %d",
							n, bitSize, pi, i, lazy[i], strict[i])
					}
					if lazy[i] >= tab.Mod.Q {
						t.Fatalf("n=%d bits=%d: Forward output %d not fully reduced", n, bitSize, lazy[i])
					}
				}
			}
		}
	}
}

// Table.Inverse (with N^-1 folded into the last stage) must be
// bit-identical to the strict reference with its separate scaling pass.
func TestInverseLazyMatchesStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{2, 4, 8, 16, 256, 1024} {
		for _, bitSize := range []int{30, 45, 59, 61} {
			tab := mustTable(t, n, bitSize)
			for pi, p := range edgePolys(rng, n, tab.Mod.Q) {
				lazy := append([]uint64(nil), p...)
				strict := append([]uint64(nil), p...)
				tab.Inverse(lazy)
				tab.InverseStrict(strict)
				for i := range lazy {
					if lazy[i] != strict[i] {
						t.Fatalf("n=%d bits=%d poly=%d: Inverse diverges from strict at %d: %d != %d",
							n, bitSize, pi, i, lazy[i], strict[i])
					}
					if lazy[i] >= tab.Mod.Q {
						t.Fatalf("n=%d bits=%d: Inverse output %d not fully reduced", n, bitSize, lazy[i])
					}
				}
			}
		}
	}
}

// The fused kernels — the default degree the ring layer runs and every other
// degree a plan can be built at — must be bit-identical to the strict
// reference for every transform length a table supports up to 2^14, at
// every band edge. Sizes below 8 never reach a full radix-8 block: N=2 and
// N=4 run entirely as the remainder pass; above that every logN mod 3
// remainder (first pass forward, last pass inverse), the specialized
// kernels and the generic one (k ≥ 4, the lower degrees' other κ ≤ 2
// shapes, and every counted run) are covered. Primes under 2^50 run the
// IFMA52 lanes from N = 64 where the CPU has them; 61 bits never does.
func TestFusedMatchesStrictEveryLogN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for logN := 1; logN <= 14; logN++ {
		n := 1 << uint(logN)
		for _, bitSize := range []int{31, 45, 50, 61} {
			tab := mustTable(t, n, bitSize)
			polys := edgePolys(rng, n, tab.Mod.Q)
			if logN > 10 {
				polys = polys[2:5] // all q−1, alternating, one random
			}
			for pi, p := range polys {
				wantF := append([]uint64(nil), p...)
				wantI := append([]uint64(nil), p...)
				tab.ForwardStrict(wantF)
				tab.InverseStrict(wantI)
				for k := 1; k <= 6; k++ {
					for _, counted := range []bool{false, true} {
						var st *Stats
						if counted {
							st = new(Stats)
						}
						gotF := append([]uint64(nil), p...)
						gotI := append([]uint64(nil), p...)
						FusedPlan{Table: tab, K: k}.ForwardCounted(gotF, st)
						InverseFusedPlan{Table: tab, K: k}.InverseCounted(gotI, st)
						for i := range p {
							if gotF[i] != wantF[i] || gotI[i] != wantI[i] {
								t.Fatalf("logN=%d bits=%d poly=%d k=%d counted=%v: fused diverges from strict at %d (fwd %d want %d, inv %d want %d)",
									logN, bitSize, pi, k, counted, i, gotF[i], wantF[i], gotI[i], wantI[i])
							}
						}
					}
				}
			}
		}
	}
}

// The evaluation-domain product is the Montgomery VecMontMul; it must match
// the Barrett product bit for bit at a 61-bit prime.
func TestMulEvalMontgomeryMatchesBarrett(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tab := mustTable(t, 64, 61)
	q := tab.Mod.Q
	a := randomPoly(rng, 64, q)
	b := randomPoly(rng, 64, q)
	a[0], b[0] = 0, q-1
	a[1], b[1] = q-1, q-1
	a[2], b[2] = 1, q-1
	c := make([]uint64, 64)
	tab.Mod.VecMontMul(c, a, b)
	for i := range c {
		if want := tab.Mod.Mul(a[i], b[i]); c[i] != want {
			t.Fatalf("VecMontMul[%d]=%d want %d", i, c[i], want)
		}
	}
}

// ForwardWithStats counts the lazy radix-2 schedule exactly: every stage
// books N mult, add and TAM reduction slots, all deferred but the last
// stage's, which performs the one normalization per coefficient; stage s
// loads its 2^s twiddles, N − 1 in all. The counted run's output is the
// transform's.
func TestLazyStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{2, 4, 8, 256, 4096} {
		tab := mustTable(t, n, 59)
		a := randomPoly(rng, n, tab.Mod.Q)
		want := append([]uint64(nil), a...)
		tab.ForwardStrict(want)
		var s Stats
		tab.ForwardWithStats(a, &s)
		for i := range a {
			if a[i] != want[i] {
				t.Fatalf("n=%d: counted forward differs from strict at %d", n, i)
			}
		}
		N, logN := int64(n), int64(log2(n))
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"Mults", s.Mults, N * logN},
			{"Adds", s.Adds, N * logN},
			{"Reductions", s.Reductions, N * logN},
			{"Deferred", s.Deferred, N * (logN - 1)},
			{"Normalizations", s.Normalizations, N},
			{"TwiddleLoads", s.TwiddleLoads, N - 1},
		} {
			if c.got != c.want {
				t.Errorf("n=%d: %s=%d want %d", n, c.name, c.got, c.want)
			}
		}
	}
}

// The fused plans must also satisfy the Deferred/Normalizations invariant so
// the table-2 report can compare executed reductions across kernels.
func TestFusedStatsInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	tab := mustTable(t, 256, 59)
	for _, k := range []int{1, 2, 3, 4} {
		p, err := NewFusedPlan(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		a := randomPoly(rng, 256, tab.Mod.Q)
		var s Stats
		p.ForwardCounted(a, &s)
		if s.Reductions != s.Deferred+s.Normalizations {
			t.Errorf("k=%d: Reductions=%d != Deferred=%d + Normalizations=%d",
				k, s.Reductions, s.Deferred, s.Normalizations)
		}
	}
}

const benchN = 1 << 13 // N = 2^13, the paper-relevant microbenchmark size

func benchPoly(tab *Table) []uint64 {
	rng := rand.New(rand.NewSource(42))
	return randomPoly(rng, tab.N, tab.Mod.Q)
}

func BenchmarkForwardLazy(b *testing.B) {
	tab := benchTable(b, benchN)
	a := benchPoly(tab)
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Forward(a)
	}
}

func BenchmarkForwardStrict(b *testing.B) {
	tab := benchTable(b, benchN)
	a := benchPoly(tab)
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ForwardStrict(a)
	}
}

func BenchmarkInverseLazy(b *testing.B) {
	tab := benchTable(b, benchN)
	a := benchPoly(tab)
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Inverse(a)
	}
}

func BenchmarkInverseStrict(b *testing.B) {
	tab := benchTable(b, benchN)
	a := benchPoly(tab)
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.InverseStrict(a)
	}
}

func BenchmarkMulEvalMontgomery(b *testing.B) {
	tab := benchTable(b, benchN)
	x := benchPoly(tab)
	y := benchPoly(tab)
	c := make([]uint64, tab.N)
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Mod.VecMontMul(c, x, y)
	}
}

func BenchmarkMulEvalBarrett(b *testing.B) {
	tab := benchTable(b, benchN)
	x := benchPoly(tab)
	y := benchPoly(tab)
	c := make([]uint64, tab.N)
	mod := tab.Mod
	b.SetBytes(int64(8 * tab.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range c {
			c[j] = mod.Mul(x[j], y[j])
		}
	}
}

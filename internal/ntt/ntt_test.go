package ntt

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"poseidon/internal/numeric"
)

func mustTable(t testing.TB, n int, bitSize int) *Table {
	t.Helper()
	logN := log2(n)
	ps, err := numeric.GenerateNTTPrimes(bitSize, logN, 1)
	if err != nil {
		t.Fatalf("prime gen: %v", err)
	}
	tab, err := NewTable(n, ps[0])
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	return tab
}

func randomPoly(rng *rand.Rand, n int, q uint64) []uint64 {
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % q
	}
	return a
}

func TestNewTableErrors(t *testing.T) {
	if _, err := NewTable(3, 97); err == nil {
		t.Error("non-power-of-two length should error")
	}
	if _, err := NewTable(8, 15); err == nil {
		t.Error("composite modulus should error")
	}
	if _, err := NewTable(8, 19); err == nil {
		t.Error("q != 1 mod 2N should error")
	}
}

func TestForwardInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{2, 4, 8, 64, 256, 1024} {
		for _, bitSize := range []int{30, 45, 59} {
			tab := mustTable(t, n, bitSize)
			a := randomPoly(rng, n, tab.Mod.Q)
			orig := append([]uint64(nil), a...)
			tab.Forward(a)
			tab.Inverse(a)
			for i := range a {
				if a[i] != orig[i] {
					t.Fatalf("n=%d bits=%d: round trip mismatch at %d: %d != %d",
						n, bitSize, i, a[i], orig[i])
				}
			}
		}
	}
}

// The schoolbook product referees the transforms at every prime width
// production runs. A prime under 2^50 takes the lane bodies at n = 128 on a
// CPU with IFMA; n < 64 and the wider primes take the Go bodies.
func TestConvolutionTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, bits := range []int{40, 45, 55, 58, 61} {
		for _, n := range []int{4, 16, 128} {
			tab := mustTable(t, n, bits)
			a := randomPoly(rng, n, tab.Mod.Q)
			b := randomPoly(rng, n, tab.Mod.Q)
			want := tab.NegacyclicConvolution(a, b)

			fa := append([]uint64(nil), a...)
			fb := append([]uint64(nil), b...)
			tab.Forward(fa)
			tab.Forward(fb)
			c := make([]uint64, n)
			tab.Mod.VecMontMul(c, fa, fb)
			tab.Inverse(c)
			for i := range c {
				if c[i] != want[i] {
					t.Fatalf("%d-bit q, n=%d (body %v): convolution mismatch at %d", bits, n, tab.body, i)
				}
			}
		}
	}
}

// The NTT of a monomial X^j has evaluation values psi^(j(2·brv(i)+1));
// testing against direct evaluation of the polynomial at the odd psi powers
// pins down both ordering and the negacyclic twist.
func TestForwardMatchesDirectEvaluation(t *testing.T) {
	n := 16
	tab := mustTable(t, n, 30)
	rng := rand.New(rand.NewSource(12))
	a := randomPoly(rng, n, tab.Mod.Q)

	// Direct evaluation at roots psi^(2r+1) for r = 0..n-1.
	direct := make([]uint64, n)
	for r := 0; r < n; r++ {
		x := tab.PsiPower(2*r + 1)
		acc := uint64(0)
		pw := uint64(1)
		for j := 0; j < n; j++ {
			acc = tab.Mod.Add(acc, tab.Mod.Mul(a[j], pw))
			pw = tab.Mod.Mul(pw, x)
		}
		direct[r] = acc
	}

	f := append([]uint64(nil), a...)
	tab.Forward(f)
	// Forward output index i holds evaluation at psi^(2·brv(i)+1).
	for i := 0; i < n; i++ {
		r := brv(i, tab.LogN)
		if f[i] != direct[r] {
			t.Fatalf("output %d != direct evaluation %d", i, r)
		}
	}
}

func brv(x, bits int) int {
	r := 0
	for i := 0; i < bits; i++ {
		r = (r << 1) | (x & 1)
		x >>= 1
	}
	return r
}

func TestForwardLinearityProperty(t *testing.T) {
	tab := mustTable(t, 64, 45)
	q := tab.Mod.Q
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomPoly(rng, 64, q)
		b := randomPoly(rng, 64, q)
		sum := make([]uint64, 64)
		for i := range sum {
			sum[i] = tab.Mod.Add(a[i], b[i])
		}
		tab.Forward(a)
		tab.Forward(b)
		tab.Forward(sum)
		for i := range sum {
			if sum[i] != tab.Mod.Add(a[i], b[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Every fused degree, through the plan's own constructor, against the
// reduce-every-butterfly reference.
func TestFusedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{8, 64, 512, 4096} {
		for _, bitSize := range []int{30, 59} {
			tab := mustTable(t, n, bitSize)
			for k := 1; k <= 6; k++ {
				plan, err := NewFusedPlan(tab, k)
				if err != nil {
					t.Fatalf("NewFusedPlan(k=%d): %v", k, err)
				}
				a := randomPoly(rng, n, tab.Mod.Q)
				want := append([]uint64(nil), a...)
				tab.ForwardStrict(want)
				plan.Forward(a)
				for i := range a {
					if a[i] != want[i] {
						t.Fatalf("n=%d bits=%d k=%d: fused mismatch at %d", n, bitSize, k, i)
					}
				}
			}
		}
	}
}

func TestFusedPlanErrors(t *testing.T) {
	tab := mustTable(t, 8, 30)
	if _, err := NewFusedPlan(tab, 0); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := NewFusedPlan(tab, 7); err == nil {
		t.Error("k=7 should error")
	}
}

func TestFusedPassCount(t *testing.T) {
	tab := mustTable(t, 4096, 30)
	for k := 1; k <= 6; k++ {
		plan, err := NewFusedPlan(tab, k)
		if err != nil {
			t.Fatal(err)
		}
		want := Iterations(tab.LogN, k)
		if got := plan.Passes(); got != want {
			t.Errorf("k=%d: passes=%d want %d", k, got, want)
		}
	}
}

// Every pass the default plan runs at a production ring size must have a
// specialized body: forward passes are radix-8 or the remainder, which runs
// first and is not the last; inverse passes are radix-8 or the N^-1 fold. A
// shape outside these takes the generic body (fused.go), so a schedule
// change that broke this would move production transforms onto it. The
// loops walk the passes as FusedPlan.forward and InverseFusedPlan.inverse do.
func TestDefaultPlanShapes(t *testing.T) {
	const k = DefaultFusionDegree
	for logN := 6; logN <= 17; logN++ {
		n := 1 << uint(logN)
		_, kappa := fusedPasses(logN, k)
		for m0 := 1; m0 < n; m0, kappa = m0<<uint(kappa), k {
			first, last := m0 == 1, n/(m0<<uint(kappa)) == 1
			if kappa != 3 && !(first && !last) {
				t.Errorf("logN=%d: forward pass at m0=%d has κ=%d (first=%v last=%v)", logN, m0, kappa, first, last)
			}
		}
		passes, rem := fusedPasses(logN, k)
		stride := 1
		for pi := 0; pi < passes; pi++ {
			kappa := k
			if pi == passes-1 {
				kappa = rem
			}
			if fold := n/(stride<<uint(kappa)) == 1; kappa != 3 && !fold {
				t.Errorf("logN=%d: inverse pass %d at stride %d has κ=%d and does not fold", logN, pi, stride, kappa)
			}
			stride <<= uint(kappa)
		}
	}
}

// Fusion reduces reduction slots (and memory passes) by ~k× without adding
// arithmetic: the register-blocked kernel executes the same butterfly
// network at every degree, so Mults/Adds of the k = 3 plan match the radix-2
// schedule ForwardWithStats counts exactly while Reductions shrinks from one
// slot per stage to one per pass — the software
// reading of the Table II tradeoff (the hardware TAM's mult inflation stays
// modeled in FusedBlockCosts).
func TestFusionReductionTradeoff(t *testing.T) {
	tab := mustTable(t, 4096, 30)
	rng := rand.New(rand.NewSource(14))

	var plain Stats
	a := randomPoly(rng, tab.N, tab.Mod.Q)
	tab.ForwardWithStats(append([]uint64(nil), a...), &plain)

	plan, err := NewFusedPlan(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	var fused Stats
	plan.ForwardCounted(append([]uint64(nil), a...), &fused)

	if fused.Reductions >= plain.Reductions {
		t.Errorf("fusion should cut reductions: fused=%d plain=%d",
			fused.Reductions, plain.Reductions)
	}
	// k=3 fuses 3 stages → roughly 3× fewer reduction slots (logN=12 → 4 passes).
	ratio := float64(plain.Reductions) / float64(fused.Reductions)
	if ratio < 2.0 || ratio > 4.0 {
		t.Errorf("reduction ratio %.2f outside expected [2,4] for k=3", ratio)
	}
	if fused.Mults != plain.Mults || fused.Adds != plain.Adds {
		t.Errorf("register-blocked fusion must not add arithmetic: fused M/A=%d/%d plain=%d/%d",
			fused.Mults, fused.Adds, plain.Mults, plain.Adds)
	}
	if want := int64(Iterations(tab.LogN, 3)); fused.FusedPasses != want {
		t.Errorf("fused passes=%d want %d", fused.FusedPasses, want)
	}
	if want := int64(tab.LogN); plain.FusedPasses != want {
		t.Errorf("radix-2 schedule recorded %d passes, want one per stage (%d)", plain.FusedPasses, want)
	}
}

func TestBlockCostsMatchTableII(t *testing.T) {
	// The analytic per-block costs must reproduce the paper's Table II.
	wantUnfusedMA := map[int]int{2: 8, 3: 24, 4: 64, 5: 160, 6: 384}
	wantFusedMA := map[int]int{2: 12, 3: 56, 4: 240, 5: 992}
	wantUnfusedW := map[int]int{2: 2, 3: 4, 4: 8, 5: 16, 6: 32}
	wantFusedW := map[int]int{2: 2, 3: 5, 4: 13, 5: 34, 6: 85}
	for k := 2; k <= 6; k++ {
		u := UnfusedBlockCosts(k)
		f := FusedBlockCosts(k)
		if u.Mults != wantUnfusedMA[k] || u.Adds != wantUnfusedMA[k] {
			t.Errorf("k=%d: unfused M/A=%d/%d want %d", k, u.Mults, u.Adds, wantUnfusedMA[k])
		}
		if k <= 5 && (f.Mults != wantFusedMA[k] || f.Adds != wantFusedMA[k]) {
			t.Errorf("k=%d: fused M/A=%d/%d want %d", k, f.Mults, f.Adds, wantFusedMA[k])
		}
		if u.Twiddles != wantUnfusedW[k] {
			t.Errorf("k=%d: unfused W=%d want %d", k, u.Twiddles, wantUnfusedW[k])
		}
		if f.Twiddles != wantFusedW[k] {
			t.Errorf("k=%d: fused W=%d want %d", k, f.Twiddles, wantFusedW[k])
		}
		if f.Reductions != 1<<uint(k) {
			t.Errorf("k=%d: fused reductions=%d want %d", k, f.Reductions, 1<<uint(k))
		}
		if u.Reductions != k<<uint(k) {
			t.Errorf("k=%d: unfused reductions=%d want %d", k, u.Reductions, k<<uint(k))
		}
	}
}

func TestAccessStride(t *testing.T) {
	// Fig 5 / Table III: with k=3, iteration strides are 1, 8, 64, ...
	for iter, want := range map[int]int{1: 1, 2: 8, 3: 64, 4: 512} {
		if got := AccessStride(iter, 3); got != want {
			t.Errorf("AccessStride(%d,3)=%d want %d", iter, got, want)
		}
	}
	// Conventional NTT (k=1): strides 1, 2, 4, ...
	for iter, want := range map[int]int{1: 1, 2: 2, 3: 4, 4: 8} {
		if got := AccessStride(iter, 1); got != want {
			t.Errorf("AccessStride(%d,1)=%d want %d", iter, got, want)
		}
	}
	if got := Iterations(12, 3); got != 4 {
		t.Errorf("Iterations(12,3)=%d want 4", got)
	}
	if got := Iterations(12, 1); got != 12 {
		t.Errorf("Iterations(12,1)=%d want 12", got)
	}
	if got := Iterations(16, 3); got != 6 {
		t.Errorf("Iterations(16,3)=%d want 6", got)
	}
}

func TestDistinctTwiddles(t *testing.T) {
	tab := mustTable(t, 64, 30)
	plan, err := NewFusedPlan(tab, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.DistinctTwiddles() {
		if d <= 0 {
			t.Errorf("pass %d: distinct twiddles %d, want > 0", i, d)
		}
		if d > 64*64 {
			t.Errorf("pass %d: distinct twiddles %d exceeds matrix size", i, d)
		}
	}
}

// BenchmarkForwardFused times the radix-2 schedule (k = 1) against the
// default degree.
func BenchmarkForwardFused(b *testing.B) {
	for _, k := range []int{1, DefaultFusionDegree} {
		for _, n := range []int{4096, 16384} {
			b.Run(fmt.Sprintf("k=%d/N=%d", k, n), func(b *testing.B) {
				tab := benchTable(b, n)
				plan := FusedPlan{Table: tab, K: k}
				a := randomPoly(rand.New(rand.NewSource(1)), n, tab.Mod.Q)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plan.Forward(a)
				}
			})
		}
	}
}

func benchTable(b *testing.B, n int) *Table {
	b.Helper()
	ps, err := numeric.GenerateNTTPrimes(59, log2(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := NewTable(n, ps[0])
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

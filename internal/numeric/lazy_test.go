package numeric

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
	"time"
)

// ReduceFourQ must be exact at every band edge: 0, 1, q−1, q, 2q−1, 2q,
// 3q−1, 3q, 4q−1.
func TestReduceBandEdges(t *testing.T) {
	for _, q := range testModuli {
		m := NewModulus(q)
		for _, a := range []uint64{0, 1, q - 1, q, 2*q - 1, 2 * q, 3*q - 1, 3 * q, 4*q - 1} {
			if got, want := m.ReduceFourQ(a), a%q; got != want {
				t.Errorf("q=%d ReduceFourQ(%d)=%d want %d", q, a, got, want)
			}
		}
	}
}

// VecMACWide must accumulate exactly like math/big, up to MaxLazyProducts
// maximal products.
func TestMACWideAgainstBig(t *testing.T) {
	q := uint64(2305843009213554689) // 61-bit: worst case for accumulator headroom
	m := NewModulus(q)
	hi, lo := make([]uint64, 1), make([]uint64, 1)
	want := new(big.Int)
	aMax := []uint64{q - 1}
	for i := 0; i < MaxLazyProducts; i++ {
		VecMACWide(hi, lo, aMax, aMax)
		want.Add(want, new(big.Int).Mul(new(big.Int).SetUint64(aMax[0]), new(big.Int).SetUint64(aMax[0])))
	}
	got := new(big.Int).Lsh(new(big.Int).SetUint64(hi[0]), 64)
	got.Add(got, new(big.Int).SetUint64(lo[0]))
	if got.Cmp(want) != 0 {
		t.Fatalf("VecMACWide accumulated %v want %v", got, want)
	}
	// And the single deferred reduction recovers the exact digit sum.
	wantMod := new(big.Int).Mod(want, new(big.Int).SetUint64(q)).Uint64()
	if r := m.ReduceWide(hi[0], lo[0]); r != wantMod {
		t.Fatalf("ReduceWide(acc)=%d want %d", r, wantMod)
	}
}

// ReduceWide is now valid for ANY 128-bit input (the fused inner-product
// accumulators rely on this), not just products below q·2^64.
func TestReduceWideFullRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, q := range testModuli {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		check := func(hi, lo uint64) {
			x := new(big.Int).Lsh(new(big.Int).SetUint64(hi), 64)
			x.Add(x, new(big.Int).SetUint64(lo))
			want := new(big.Int).Mod(x, bq).Uint64()
			if got := m.ReduceWide(hi, lo); got != want {
				t.Fatalf("q=%d ReduceWide(%#x,%#x)=%d want %d", q, hi, lo, got, want)
			}
		}
		check(^uint64(0), ^uint64(0)) // 2^128 − 1
		check(^uint64(0), 0)
		check(0, ^uint64(0))
		for i := 0; i < 1000; i++ {
			check(rng.Uint64(), rng.Uint64())
		}
	}
}

// TestReduceWideFixupSubtraction pins the conditional-subtraction fix-up:
// for x just above the largest multiple of q below 2^128, the quotient
// estimate undershoots by exactly 1 and the first of the two guards fires
// (r ∈ [q, 2q)). The sweep also re-proves, against math/big, that the
// estimate never undershoots by 2 — the second guard is pure safety margin,
// consistent with the e < 1 error bound in the ReduceWide comment.
func TestReduceWideFixupSubtraction(t *testing.T) {
	one := big.NewInt(1)
	b128 := new(big.Int).Lsh(one, 128)
	mask := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	for _, q := range testModuli {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		mu := new(big.Int).Lsh(new(big.Int).SetUint64(m.BarrettHi), 64)
		mu.Add(mu, new(big.Int).SetUint64(m.BarrettLo))
		k := new(big.Int).Div(new(big.Int).Sub(b128, one), bq)
		fixups := 0
		for s := int64(0); s < 512; s++ {
			x := new(big.Int).Mul(k, bq)
			x.Add(x, big.NewInt(s))
			if x.Cmp(b128) >= 0 {
				break
			}
			// Reference quotient estimate and raw remainder.
			est := new(big.Int).Mul(x, mu)
			est.Rsh(est, 128)
			raw := new(big.Int).Sub(x, new(big.Int).Mul(est, bq))
			if raw.Cmp(new(big.Int).Lsh(bq, 1)) >= 0 {
				t.Fatalf("q=%d x=%v: raw remainder %v ≥ 2q — undershoot-by-1 bound violated", q, x, raw)
			}
			if raw.Cmp(bq) >= 0 {
				fixups++
			}
			hi := new(big.Int).Rsh(x, 64).Uint64()
			lo := new(big.Int).And(x, mask).Uint64()
			want := new(big.Int).Mod(x, bq).Uint64()
			if got := m.ReduceWide(hi, lo); got != want {
				t.Fatalf("q=%d ReduceWide(%#x,%#x)=%d want %d", q, hi, lo, got, want)
			}
		}
		if fixups == 0 {
			t.Errorf("q=%d: sweep never exercised the fix-up subtraction", q)
		}
	}
}

// The vector fused-accumulation kernels must agree with their scalar
// definitions: MaxLazyProducts MACs, a fold in the middle, one deferred
// reduction at the end.
func TestVecWideKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 67 // not a multiple of any unroll width
	for _, q := range testModuli {
		m := NewModulus(q)
		hi := make([]uint64, n)
		lo := make([]uint64, n)
		want := make([]*big.Int, n)
		for j := range want {
			want[j] = new(big.Int)
		}
		bq := new(big.Int).SetUint64(q)
		terms := MaxLazyProducts + MaxLazyProducts/2 // forces one fold
		a := make([]uint64, n)
		b := make([]uint64, n)
		for k := 0; k < terms; k++ {
			for j := 0; j < n; j++ {
				a[j] = rng.Uint64() % q
				b[j] = rng.Uint64() % q
			}
			a[0], b[0] = q-1, q-1 // keep one maximal column
			VecMACWide(hi, lo, a, b)
			for j := 0; j < n; j++ {
				want[j].Add(want[j], new(big.Int).Mul(new(big.Int).SetUint64(a[j]), new(big.Int).SetUint64(b[j])))
			}
			if k == MaxLazyProducts-1 {
				m.VecFoldWide(hi, lo)
				for j := range want {
					want[j].Mod(want[j], bq)
				}
			}
		}
		out := make([]uint64, n)
		m.VecReduceWide(out, hi, lo)
		for j := 0; j < n; j++ {
			if w := new(big.Int).Mod(want[j], bq).Uint64(); out[j] != w {
				t.Fatalf("q=%d col %d: fused sum %d want %d", q, j, out[j], w)
			}
		}
	}
}

// VecReduceWideAdd must match Add(out, ReduceWide) column-wise, including
// maximal residues — it closes the plaintext group sums of double-hoisted
// linear transforms.
func TestVecWideAddKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const n = 32
	for _, q := range testModuli {
		m := NewModulus(q)
		hi := make([]uint64, n)
		lo := make([]uint64, n)
		out := make([]uint64, n)
		want := make([]uint64, n)
		for j := 0; j < n; j++ {
			hi[j], lo[j] = rng.Uint64(), rng.Uint64()
			out[j] = rng.Uint64() % q
		}
		hi[0], lo[0], out[0] = ^uint64(0), ^uint64(0), q-1
		for j := 0; j < n; j++ {
			want[j] = m.Add(out[j], m.ReduceWide(hi[j], lo[j]))
		}
		m.VecReduceWideAdd(out, hi, lo)
		for j := 0; j < n; j++ {
			if out[j] != want[j] {
				t.Fatalf("q=%d col %d: VecReduceWideAdd %d want %d", q, j, out[j], want[j])
			}
		}
	}
}

// VecTensor must match Mul and Add bit for bit on all three outputs,
// including maximal operands, on the Go body (n = 33, no whole registers)
// and on the modulus's own body (n = 32).
func TestVecTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{32, 33} {
		for _, q := range testModuli {
			m := NewModulus(q)
			a0 := make([]uint64, n)
			b0 := make([]uint64, n)
			a1 := make([]uint64, n)
			b1 := make([]uint64, n)
			for j := 0; j < n; j++ {
				a0[j], b0[j] = rng.Uint64()%q, rng.Uint64()%q
				a1[j], b1[j] = rng.Uint64()%q, rng.Uint64()%q
			}
			a0[0], b0[0], a1[0], b1[0] = q-1, q-1, q-1, q-1
			o0, o1, o2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
			m.VecTensor(o0, o1, o2, a0, a1, b0, b1)
			for j := 0; j < n; j++ {
				if want := m.Mul(a0[j], b0[j]); o0[j] != want {
					t.Fatalf("q=%d n=%d col %d: o0 %d want %d", q, n, j, o0[j], want)
				}
				if want := m.Add(m.Mul(a0[j], b1[j]), m.Mul(a1[j], b0[j])); o1[j] != want {
					t.Fatalf("q=%d n=%d col %d: o1 %d want %d", q, n, j, o1[j], want)
				}
				if want := m.Mul(a1[j], b1[j]); o2[j] != want {
					t.Fatalf("q=%d n=%d col %d: o2 %d want %d", q, n, j, o2[j], want)
				}
			}
		}
	}
}

// The lazy Shoup product the NTT butterflies inline (a·w − ⌊a·w'/2^64⌋·q,
// in [0, 2q) for any 64-bit a) plus the Harvey-style correction must
// reproduce reference arithmetic for twiddle multiplication at all band
// edges.
func TestLazyButterflyAlgebra(t *testing.T) {
	for _, q := range testModuli {
		if 4*q < q { // needs 4q headroom
			continue
		}
		m := NewModulus(q)
		w := q - 1 // worst-case twiddle
		ws := m.ShoupConstant(w)
		for _, u := range []uint64{0, 1, q - 1, q, 2*q - 1, 2 * q, 4*q - 1} {
			for _, v := range []uint64{0, 1, q - 1, q, 2*q - 1, 2 * q, 4*q - 1} {
				uu := u
				if uu >= 2*q {
					uu -= 2 * q
				}
				hi, _ := bits.Mul64(v, ws)
				tt := v*w - hi*q
				x := uu + tt
				y := uu + 2*q - tt
				if x >= 4*q || y >= 4*q {
					t.Fatalf("q=%d butterfly outputs out of 4q band: x=%d y=%d", q, x, y)
				}
				wantX := m.Add(m.Reduce(u), m.Mul(m.Reduce(v), w))
				wantY := m.Sub(m.Reduce(u), m.Mul(m.Reduce(v), w))
				if m.ReduceFourQ(x) != wantX || m.ReduceFourQ(y) != wantY {
					t.Fatalf("q=%d lazy butterfly incongruent at u=%d v=%d", q, u, v)
				}
			}
		}
	}
}

// VecMACWidePair must be element-for-element identical to two VecMACWide
// calls over the shared multiplicand, at lengths on both sides of every
// small power of two.
func TestVecMACWidePairMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 3, 4, 7, 64, 129} {
		a0 := make([]uint64, n)
		a1 := make([]uint64, n)
		b := make([]uint64, n)
		hi0 := make([]uint64, n)
		lo0 := make([]uint64, n)
		hi1 := make([]uint64, n)
		lo1 := make([]uint64, n)
		wantHi0 := make([]uint64, n)
		wantLo0 := make([]uint64, n)
		wantHi1 := make([]uint64, n)
		wantLo1 := make([]uint64, n)
		for j := 0; j < n; j++ {
			a0[j], a1[j], b[j] = rng.Uint64(), rng.Uint64(), rng.Uint64()
			hi0[j], lo0[j] = rng.Uint64(), rng.Uint64()
			hi1[j], lo1[j] = rng.Uint64(), rng.Uint64()
			wantHi0[j], wantLo0[j] = hi0[j], lo0[j]
			wantHi1[j], wantLo1[j] = hi1[j], lo1[j]
		}
		VecMACWide(wantHi0, wantLo0, a0, b)
		VecMACWide(wantHi1, wantLo1, a1, b)
		VecMACWidePair(hi0, lo0, hi1, lo1, a0, a1, b)
		for j := 0; j < n; j++ {
			if hi0[j] != wantHi0[j] || lo0[j] != wantLo0[j] || hi1[j] != wantHi1[j] || lo1[j] != wantLo1[j] {
				t.Fatalf("n=%d j=%d pair kernel diverges from single-row kernel", n, j)
			}
		}
	}
}

// VecInnerProductPair must leave the canonical residue of the exact integer
// sum Σ_d x[d][perm[j]]·k[d][j] for both key rows — below, at and past the
// run length at which the 128-bit sums are closed and reopened, gathered or
// in order, overwriting or folding onto the previous residues — including
// all-maximal columns.
func TestVecInnerProductPair(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n = 16
	perm := rng.Perm(n)
	for _, q := range testModuli {
		m := NewModulus(q)
		bq := new(big.Int).SetUint64(q)
		for _, digits := range []int{0, 1, 2, 3, MaxLazyProducts - 1, MaxLazyProducts, MaxLazyProducts + 7} {
			rows := func() [][]uint64 {
				rs := make([][]uint64, digits)
				for d := range rs {
					rs[d] = make([]uint64, n)
					for j := range rs[d] {
						rs[d][j] = rng.Uint64() % q
					}
					rs[d][0], rs[d][perm[0]] = q-1, q-1 // one maximal column, gathered or not
				}
				return rs
			}
			x, k0, k1 := rows(), rows(), rows()
			for _, p := range [][]int{nil, perm} {
				for _, add := range []bool{false, true} {
					out0, out1 := make([]uint64, n), make([]uint64, n)
					for j := range out0 {
						out0[j], out1[j] = rng.Uint64()%q, rng.Uint64()%q
					}
					out0[0], out1[0] = q-1, q-1
					prev0, prev1 := append([]uint64(nil), out0...), append([]uint64(nil), out1...)
					m.VecInnerProductPair(out0, out1, x, k0, k1, p, add)
					for j := 0; j < n; j++ {
						src := j
						if p != nil {
							src = p[j]
						}
						w0, w1 := new(big.Int), new(big.Int)
						if add {
							w0.SetUint64(prev0[j])
							w1.SetUint64(prev1[j])
						}
						for d := 0; d < digits; d++ {
							v := new(big.Int).SetUint64(x[d][src])
							w0.Add(w0, new(big.Int).Mul(v, new(big.Int).SetUint64(k0[d][j])))
							w1.Add(w1, new(big.Int).Mul(v, new(big.Int).SetUint64(k1[d][j])))
						}
						if w0.Mod(w0, bq).Uint64() != out0[j] || w1.Mod(w1, bq).Uint64() != out1[j] {
							t.Fatalf("q=%d digits=%d gather=%v add=%v col %d: got (%d, %d) want (%d, %d)",
								q, digits, p != nil, add, j, out0[j], out1[j], w0, w1)
						}
					}
				}
			}
		}
	}
}

// BenchmarkVecKernels times the accumulate-and-close loops of the evaluator's
// inner products alone, at a limb that fits L1 (N = 512, the bootstrapping
// set) and one that does not (N = 8192), and reports ns per coefficient (the
// inner product over three digits) — so what a toolchain does to them reads
// off one `go test -bench`. These rows run the Go bodies (a 60-bit prime;
// the inner product calls innerProductGo, which the DQ lanes would
// otherwise replace).
//
// The lanes/ and dq/ rows time a vector body against the Go body in one
// binary, each iteration a burst of one and a burst of the other in
// alternating order, so host drift lands on both: the IFMA52 lanes on a
// 45-bit prime (lanes-ns/coeff), the DQ lanes on a 55- and a 58-bit prime
// (dq-ns/coeff), each beside go-ns/coeff. The shapes are the keyswitch
// inner product at (N, digits) = (8192, 3), in order and gathered through a
// Galois permutation, and (512, 6); and one 512-column block of a linear
// transform's plaintext MAC over 16 diagonals, whose Go body is
// macPairBlocked.
//
//	go test -run '^$' -bench 'BenchmarkVecKernels/(lanes|dq)' -count 5 ./internal/numeric/
func BenchmarkVecKernels(b *testing.B) {
	m := NewModulus(1152921504606584833)
	rng := rand.New(rand.NewSource(19))
	for _, n := range []int{512, 8192} {
		row := func() []uint64 {
			r := make([]uint64, n)
			for j := range r {
				r[j] = rng.Uint64() % m.Q
			}
			return r
		}
		x, y, z, c := row(), row(), row(), make([]uint64, n)
		hi0, lo0, hi1, lo1 := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
		rows := [][]uint64{x, y, z}
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"VecMontMul", func() { m.VecMontMul(c, x, y) }},
			{"VecMACWide", func() { VecMACWide(hi0, lo0, x, y) }},
			{"VecMACWidePair", func() { VecMACWidePair(hi0, lo0, hi1, lo1, x, y, z) }},
			{"VecReduceWide", func() { m.VecReduceWide(c, hi0, lo0) }},
			{"VecInnerProductPair", func() { m.innerProductGo(hi1, lo1, rows, rows, rows, nil, false) }},
		} {
			b.Run(fmt.Sprintf("%s/N=%d", k.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/coeff")
			})
		}
	}
	for _, v := range []struct {
		prefix string
		q      uint64
		body   Body
		unit   string
	}{
		{"lanes", 35184371138561, BodyIFMA52, "lanes-ns/coeff"},
		{"dq/q55", 36028797018652673, BodyDQ, "dq-ns/coeff"},
		{"dq/q58", 288230376150876161, BodyDQ, "dq-ns/coeff"},
	} {
		mod := NewModulus(v.q)
		for _, c := range []struct {
			name     string
			n, terms int
			gather   bool
			mac      bool
		}{
			{"InnerProductPair/N=8192/digits=3", 8192, 3, false, false},
			{"InnerProductPair/N=8192/digits=3/gathered", 8192, 3, true, false},
			{"InnerProductPair/N=512/digits=6", 512, 6, false, false},
			{"MACBlock/N=512/diagonals=16", 512, 16, false, true},
		} {
			b.Run(v.prefix+"/"+c.name, func(b *testing.B) {
				if mod.vecBody(c.n, c.terms) != v.body {
					b.Skipf("no %s body on this CPU", v.prefix)
				}
				x := laneRows(rng, c.terms, c.n, mod.Q, nil, false)
				k0 := laneRows(rng, c.terms, c.n, mod.Q, nil, false)
				k1 := laneRows(rng, c.terms, c.n, mod.Q, nil, false)
				out0, out1 := make([]uint64, c.n), make([]uint64, c.n)
				var perm []int
				if c.gather {
					perm = rng.Perm(c.n)
				}
				bodies := [2]func(){
					func() { mod.innerProductVec(v.body, out0, out1, x, k0, k1, perm, false) },
					func() { mod.innerProductGo(out0, out1, x, k0, k1, perm, false) },
				}
				if c.mac {
					bodies[0] = func() { mod.innerProductVec(v.body, out0, out1, x, k0, k1, nil, true) }
					bodies[1] = func() { mod.macPairBlocked(out0, out1, x, k0, k1, true) }
				}
				const burst = 8
				var spent [2]time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := 0; j < 2; j++ {
						body := (i + j) % 2
						start := time.Now()
						for r := 0; r < burst; r++ {
							bodies[body]()
						}
						spent[body] += time.Since(start)
					}
				}
				coeffs := float64(b.N) * burst * float64(c.n)
				b.ReportMetric(float64(spent[0].Nanoseconds())/coeffs, v.unit)
				b.ReportMetric(float64(spent[1].Nanoseconds())/coeffs, "go-ns/coeff")
			})
		}
	}
}

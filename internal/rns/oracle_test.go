package rns

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
)

// Exact-CRT oracle for the conversions in rns.go. Everything here is
// math/big: values are reconstructed with big-integer CRT, centered, divided
// and reduced without touching a single routine (or constant table) of the
// package under test, so a defect in the lazy limb-major kernels cannot hide
// behind a matching defect in the reference.
//
// The one place the fast path is allowed latitude is the float-assisted
// overflow count: a value within 2^-40·B of ±B/2 may round to either side.
// The oracle then accepts x or x∓B — but the same choice on every
// destination limb, since k is computed once per coefficient.

// oracleShape is a (Q, P, alpha) triple shaped like one of the benchmark
// parameter sets, at a ring degree small enough for big-integer checking;
// oracleShapes(t, true) adds one with a source basis too tall for them.
type oracleShape struct {
	name  string
	q, p  []numeric.Modulus
	alpha int
}

func oracleShapes(t testing.TB, tall bool) []oracleShape {
	t.Helper()
	build := func(name string, qBits, pBits []int) oracleShape {
		need := map[int]int{}
		for _, b := range append(append([]int{}, qBits...), pBits...) {
			need[b]++
		}
		pool := map[int][]uint64{}
		for b, c := range need {
			ps, err := numeric.GenerateNTTPrimes(b, 4, c)
			if err != nil {
				t.Fatal(err)
			}
			pool[b] = ps
		}
		take := func(bits []int) []numeric.Modulus {
			var ms []numeric.Modulus
			for _, b := range bits {
				ms = append(ms, numeric.NewModulus(pool[b][0]))
				pool[b] = pool[b][1:]
			}
			return ms
		}
		s := oracleShape{name: name, alpha: len(pBits)}
		s.q, s.p = take(qBits), take(pBits)
		return s
	}
	rep := func(b, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = b
		}
		return out
	}
	shapes := []oracleShape{
		build("P13", append([]int{55}, rep(45, 5)...), []int{58, 58}),
		build("B9", append([]int{55}, rep(45, 27)...), rep(52, 5)),
		build("S11", []int{50, 40, 40, 40}, []int{51, 51}),
	}
	if tall {
		// No parameter set is shaped like this one: forty 61-bit source primes
		// sum to a 128-bit value whose high word passes every destination
		// modulus on random input, which one REDC alone does not take.
		s := build("Tall", []int{61, 45, 30}, rep(61, 40))
		s.alpha = len(s.q)
		shapes = append(shapes, s)
	}
	return shapes
}

// bigBasis is the oracle's view of an RNS basis.
type bigBasis struct {
	prod *big.Int
	w    []*big.Int // CRT weights (B/b_j)·[(B/b_j)^-1]_{b_j}
}

func newBigBasis(ms []numeric.Modulus) *bigBasis {
	b := &bigBasis{prod: productOf(ms)}
	for _, m := range ms {
		bj := new(big.Int).SetUint64(m.Q)
		hat := new(big.Int).Div(b.prod, bj)
		b.w = append(b.w, hat.Mul(hat, new(big.Int).ModInverse(hat, bj)))
	}
	return b
}

// centered returns the centered CRT value of coefficient t and, when that
// value lies within 2^-40·B of the ±B/2 rounding boundary, the other
// representative a correct float estimate may also select (else nil).
func (b *bigBasis) centered(limbs [][]uint64, t int) (x, alt *big.Int) {
	x = new(big.Int)
	for j, w := range b.w {
		x.Add(x, new(big.Int).Mul(w, new(big.Int).SetUint64(limbs[j][t])))
	}
	x.Mod(x, b.prod)
	dist := new(big.Int).Lsh(x, 1)
	dist.Sub(dist, b.prod) // 2x − B: negative below the boundary
	if dist.Sign() > 0 {
		x.Sub(x, b.prod)
	}
	if dist.Abs(dist).Lsh(dist, 40).Cmp(b.prod) < 0 {
		if x.Sign() > 0 {
			alt = new(big.Int).Sub(x, b.prod)
		} else {
			alt = new(big.Int).Add(x, b.prod)
		}
	}
	return x, alt
}

func bigMod(v *big.Int, q uint64) uint64 {
	return new(big.Int).Mod(v, new(big.Int).SetUint64(q)).Uint64()
}

// adversarial fills coefficient columns of a fresh len(ms)×n matrix with the
// residues the conversions are most likely to get wrong — 0, q−1 on every
// limb, ±1, and values hugging the ±B/2 rounding boundary both inside and
// just outside the float estimate's resolution — then random residues.
func adversarial(rng *rand.Rand, ms []numeric.Modulus, n int) [][]uint64 {
	out := allocLimbs(len(ms), n)
	prod := productOf(ms)
	half := new(big.Int).Rsh(prod, 1) // (B−1)/2 for odd B
	off := new(big.Int).Rsh(prod, 35) // 2^-35·B: outside the 2^-40 window
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(-1), // q−1 on every limb
		big.NewInt(1),
		half,
		new(big.Int).Add(half, big.NewInt(1)),
		new(big.Int).Sub(half, big.NewInt(1)),
		new(big.Int).Add(half, big.NewInt(2)),
		new(big.Int).Sub(half, off),
		new(big.Int).Add(half, off),
		new(big.Int).Neg(half),
	}
	for t := 0; t < n; t++ {
		if t < len(vals) {
			residues(vals[t], ms, t, out)
			continue
		}
		for i, m := range ms {
			out[i][t] = rng.Uint64() % m.Q
		}
	}
	return out
}

// checkConverted verifies got[r][t] ≡ x (mod mods[r]) on every row, or — only
// when alt is offered — ≡ alt on every row.
func checkConverted(t *testing.T, label string, got [][]uint64, mods []numeric.Modulus, col int, x, alt *big.Int) {
	t.Helper()
	match := func(v *big.Int) bool {
		for r, m := range mods {
			if got[r][col] != bigMod(v, m.Q) {
				return false
			}
		}
		return true
	}
	if match(x) || (alt != nil && match(alt)) {
		return
	}
	for r, m := range mods {
		t.Errorf("%s coeff %d row %d: got %d, exact CRT gives %d (boundary alternative offered: %v)",
			label, col, r, got[r][col], bigMod(x, m.Q), alt != nil)
	}
	t.FailNow()
}

// chunked runs call on irregular coefficient sub-ranges of an n-coefficient
// problem, the way the evaluator's rangeView chunks do: sizes straddle the
// 4-wide emit group and the kernel's block length.
func chunked(n int, call func(lo, hi int)) {
	sizes := []int{1, 3, 5, 17, 255, 256, 163, 2}
	for lo, k := 0, 0; lo < n; k++ {
		hi := min(n, lo+sizes[k%len(sizes)])
		call(lo, hi)
		lo = hi
	}
}

func view(m [][]uint64, lo, hi int) [][]uint64 {
	v := make([][]uint64, len(m))
	for i := range m {
		v[i] = m[i][lo:hi]
	}
	return v
}

func requireSameLimbs(t *testing.T, label string, got, want [][]uint64) {
	t.Helper()
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s: limb %d differs between whole-vector and chunked calls", label, i)
		}
	}
}

// oracleN spans several kernel blocks and leaves a tail that is not a
// multiple of four coefficients.
const oracleN = 2*maxBlock + 91

func TestOracleExtend(t *testing.T) {
	for _, s := range oracleShapes(t, true) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			// P → Q (ModDown's direction) and first digit → everything else.
			for _, c := range []struct{ src, dst []numeric.Modulus }{
				{s.p, s.q},
				{s.q[:s.alpha], append(append([]numeric.Modulus{}, s.q[s.alpha:]...), s.p...)},
			} {
				e := NewExtender(c.src, c.dst)
				in := adversarial(rng, c.src, oracleN)
				out := allocLimbs(len(c.dst), oracleN)
				e.Extend(out, in)
				src := newBigBasis(c.src)
				for col := 0; col < oracleN; col++ {
					x, alt := src.centered(in, col)
					checkConverted(t, "Extend", out, c.dst, col, x, alt)
				}
				again := allocLimbs(len(c.dst), oracleN)
				chunked(oracleN, func(lo, hi int) { e.Extend(view(again, lo, hi), view(in, lo, hi)) })
				requireSameLimbs(t, "Extend", again, out)
			}
		})
	}
}

func TestOracleDecomposeAndExtend(t *testing.T) {
	for _, s := range oracleShapes(t, false) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(12))
			d := NewDecomposer(s.q, s.p, s.alpha)
			for level := 0; level < len(s.q); level++ {
				// The top level runs the multi-block size; the rest stay small
				// so every (level, digit) pair is covered quickly.
				n := 23
				if level == len(s.q)-1 {
					n = oracleN
				}
				active := append(append([]numeric.Modulus{}, s.q[:level+1]...), s.p...)
				for dig := 0; dig < d.Digits(level); dig++ {
					label := fmt.Sprintf("level %d digit %d", level, dig)
					lo, hi := d.DigitRange(level, dig)
					in := allocLimbs(level+1, n)
					for i, row := range adversarial(rng, s.q[lo:hi], n) {
						copy(in[lo+i], row)
					}
					for i := range in {
						if i < lo || i >= hi { // other digits: ignored by this call
							for col := range in[i] {
								in[i][col] = rng.Uint64() % s.q[i].Q
							}
						}
					}
					const sentinel = ^uint64(0)
					out := allocLimbs(len(active), n)
					for i := range out {
						for col := range out[i] {
							out[i][col] = sentinel
						}
					}
					d.DecomposeAndExtend(level, dig, in, out)
					src := newBigBasis(s.q[lo:hi])
					for col := 0; col < n; col++ {
						x, alt := src.centered(in[lo:hi], col)
						checkConverted(t, label, out, active, col, x, alt)
						for i := lo; i < hi; i++ {
							if out[i][col] != in[i][col] {
								t.Fatalf("%s: digit-own limb %d not copied verbatim", label, i)
							}
						}
					}
					again := allocLimbs(len(active), n)
					chunked(n, func(a, b int) { d.DecomposeAndExtend(level, dig, view(in, a, b), view(again, a, b)) })
					requireSameLimbs(t, label, again, out)
					// ExtendDigit is the same map with the digit-own rows left
					// alone, for the caller that holds their transform already.
					for i := lo; i < hi; i++ {
						for col := range again[i] {
							again[i][col] = sentinel
						}
						copy(out[i], again[i])
					}
					d.ExtendDigit(level, dig, in, again)
					requireSameLimbs(t, label+" (ExtendDigit)", again, out)
				}
			}
		})
	}
}

func TestOracleModDown(t *testing.T) {
	for _, s := range oracleShapes(t, true) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			pBasis := newBigBasis(s.p)
			for level := 0; level < len(s.q); level++ {
				n := 23
				if level == len(s.q)-1 {
					n = oracleN
				}
				q := s.q[:level+1]
				md := NewModDownParams(q, s.p)
				aP := adversarial(rng, s.p, n)
				aQ := adversarial(rng, q, n)
				slices.Reverse(aQ[0]) // decorrelate the two adversarial prefixes
				out := allocLimbs(len(q), n)
				md.ModDown(out, aQ, aP)
				for col := 0; col < n; col++ {
					x, alt := pBasis.centered(aP, col)
					expect := func(conv *big.Int, i int) uint64 {
						qi := new(big.Int).SetUint64(q[i].Q)
						v := new(big.Int).SetUint64(aQ[i][col])
						v.Sub(v, conv).Mul(v, new(big.Int).ModInverse(pBasis.prod, qi))
						return v.Mod(v, qi).Uint64()
					}
					match := func(conv *big.Int) bool {
						for i := range q {
							if out[i][col] != expect(conv, i) {
								return false
							}
						}
						return true
					}
					if !match(x) && (alt == nil || !match(alt)) {
						t.Fatalf("level %d coeff %d: ModDown disagrees with exact (aQ − [aP]_P)/P (limb 0: got %d want %d)",
							level, col, out[0][col], expect(x, 0))
					}
				}
				// Chunked, and in place (out aliasing aQ) as the evaluator allows.
				chunked(n, func(a, b int) { md.ModDown(view(aQ, a, b), view(aQ, a, b), view(aP, a, b)) })
				requireSameLimbs(t, fmt.Sprintf("ModDown level %d", level), aQ, out)
			}
		})
	}
}

// TestOracleModDownNTTForm is the referee of the form the evaluator closes a
// keyswitch with: the Q half of the accumulator stays in the NTT domain and
// only ModDown's P-dependent part, Correction, is computed on coefficients.
// Correction itself is checked against math/big, c_i = −[aP]_P·P⁻¹ mod q_i;
// then, for an accumulator given by its NTT image âQ,
//
//	NTT(Correction(aP))_i + P⁻¹·âQ_i = NTT(ModDown(INTT(âQ), aP))_i
//
// word for word on every limb of every level — with P⁻¹ taken from math/big
// as well, so PInv is checked and not assumed.
func TestOracleModDownNTTForm(t *testing.T) {
	const n = 16 // the degree oracleShapes' primes are NTT-friendly for
	for _, s := range oracleShapes(t, false) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(15))
			pBasis := newBigBasis(s.p)
			tables := make([]*ntt.Table, len(s.q))
			for i, m := range s.q {
				var err error
				if tables[i], err = ntt.NewTable(n, m.Q); err != nil {
					t.Fatal(err)
				}
			}
			for level := 0; level < len(s.q); level++ {
				q := s.q[:level+1]
				md := NewModDownParams(q, s.p)
				aP := adversarial(rng, s.p, n)
				hatQ := adversarial(rng, q, n) // the accumulator's Q rows as the keyswitch holds them
				slices.Reverse(hatQ[0])

				c := allocLimbs(len(q), n)
				md.Correction(c, aP)
				for col := 0; col < n; col++ {
					x, alt := pBasis.centered(aP, col)
					match := func(conv *big.Int) bool {
						for i := range q {
							qi := new(big.Int).SetUint64(q[i].Q)
							v := new(big.Int).Neg(conv)
							v.Mul(v, new(big.Int).ModInverse(pBasis.prod, qi))
							if c[i][col] != v.Mod(v, qi).Uint64() {
								return false
							}
						}
						return true
					}
					if !match(x) && (alt == nil || !match(alt)) {
						t.Fatalf("level %d coeff %d: Correction disagrees with exact −[aP]_P/P", level, col)
					}
				}

				aQ := allocLimbs(len(q), n)
				want := allocLimbs(len(q), n)
				for i := range q {
					copy(aQ[i], hatQ[i])
					tables[i].Inverse(aQ[i])
				}
				md.ModDown(want, aQ, aP)
				for i, qi := range q {
					tables[i].Forward(want[i])
					tables[i].Forward(c[i])
					pInv := new(big.Int).ModInverse(pBasis.prod, new(big.Int).SetUint64(qi.Q)).Uint64()
					if w, ws := md.PInv(i); w != pInv || ws != qi.ShoupConstant(pInv) {
						t.Fatalf("level %d limb %d: PInv = %d, want %d", level, i, w, pInv)
					}
					for col := range c[i] {
						if got := qi.Add(c[i][col], qi.Mul(pInv, hatQ[i][col])); got != want[i][col] {
							t.Fatalf("level %d limb %d point %d: NTT(c) + P⁻¹·âQ = %d, NTT(ModDown) = %d", level, i, col, got, want[i][col])
						}
					}
				}
			}
		})
	}
}

func TestOracleRescale(t *testing.T) {
	for _, s := range oracleShapes(t, false) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			rs := NewRescaler(s.q)
			for l := 1; l < len(s.q); l++ {
				const n = 29
				in := allocLimbs(l+1, n)
				ql := s.q[l].Q
				edge := []uint64{0, ql - 1, ql >> 1, ql>>1 + 1, ql>>1 - 1, 1}
				for i := range in {
					for col := range in[i] {
						in[i][col] = rng.Uint64() % s.q[i].Q
					}
					// 0 and q_i−1 against every last-limb edge value.
					for col := range edge {
						in[i][col] = uint64(col%2) * (s.q[i].Q - 1)
					}
				}
				copy(in[l], edge)
				out := allocLimbs(l, n)
				rs.Rescale(out, in)
				bigQl := new(big.Int).SetUint64(ql)
				for col := 0; col < n; col++ {
					c := new(big.Int).SetUint64(in[l][col])
					if in[l][col] > ql>>1 {
						c.Sub(c, bigQl)
					}
					for i := 0; i < l; i++ {
						qi := new(big.Int).SetUint64(s.q[i].Q)
						v := new(big.Int).SetUint64(in[i][col])
						v.Sub(v, c).Mul(v, new(big.Int).ModInverse(bigQl, qi))
						if want := v.Mod(v, qi).Uint64(); out[i][col] != want {
							t.Fatalf("drop %d limb %d coeff %d: got %d want %d", l, i, col, out[i][col], want)
						}
					}
				}
				// The two-step form the evaluator runs around a forward NTT
				// must be the same map, and Rescale must work chunked and in
				// place.
				split := allocLimbs(l, n)
				for i := 0; i < l; i++ {
					rs.CenterLast(split[i], in[l], l, i)
					rs.SubScale(split[i], in[i], split[i], l, i)
				}
				requireSameLimbs(t, fmt.Sprintf("CenterLast+SubScale drop %d", l), split, out)
				chunked(n, func(a, b int) { rs.Rescale(view(in[:l], a, b), view(in, a, b)) })
				requireSameLimbs(t, fmt.Sprintf("Rescale drop %d", l), in[:l], out)
			}
		})
	}
}

// BenchmarkConvert times the conversions a keyswitch runs — ModUp of digit
// 0 (it holds q0, 55 bits, so every destination takes the DQ lanes) and of
// digit 1 (IFMA52 into the 45-bit Q limbs, DQ into q0 and the P primes),
// and ModDown whole and as the Correction the NTT-domain close uses (DQ at
// P13, whose P primes are 58 bits; IFMA52 but for q0 at B9) — on the two
// benchmark shapes (α = 2 at N = 8192, α = 5 at N = 512), in ns per output
// word, so the cost of stage + emit reads without the harness. Each case
// runs twice in one binary: body=lanes is the package's own call, the rule
// picking the body per destination; body=go is the same conversion with
// every destination on the Go body (goConvert). On a CPU without AVX-512
// both read the Go body.
func BenchmarkConvert(b *testing.B) {
	shapes := oracleShapes(b, false)
	for _, c := range []struct {
		s oracleShape
		n int
	}{{shapes[0], 8192}, {shapes[1], 512}} {
		s, n := c.s, c.n
		rng := rand.New(rand.NewSource(16))
		random := func(ms []numeric.Modulus) [][]uint64 {
			out := allocLimbs(len(ms), n)
			for i, m := range ms {
				for t := range out[i] {
					out[i][t] = rng.Uint64() % m.Q
				}
			}
			return out
		}
		level := len(s.q) - 1
		d := NewDecomposer(s.q, s.p, s.alpha)
		md := NewModDownParams(s.q, s.p)
		aQ, aP := random(s.q), random(s.p)
		ext, out := allocLimbs(len(s.q)+len(s.p), n), allocLimbs(len(s.q), n)
		qs := upTo(len(s.q))
		type body struct {
			name   string
			words  int
			lanes  func()
			goBody func()
		}
		cases := []body{
			{"Correction", len(out) * n, func() { md.Correction(out, aP) }, func() { goConvert(md.ext, out, aP, qs, nil) }},
			{"ModDown", len(out) * n, func() { md.ModDown(out, aQ, aP) }, func() { goConvert(md.ext, out, aP, qs, aQ) }},
		}
		for dig := range 2 {
			cases = append(cases, body{fmt.Sprintf("ExtendDigit/digit=%d", dig), (len(ext) - s.alpha) * n,
				func() { d.ExtendDigit(level, dig, aQ, ext) }, func() { goExtendDigit(d, level, dig, aQ, ext) }})
		}
		for _, k := range cases {
			for _, run := range []struct {
				body string
				fn   func()
			}{{"go", k.goBody}, {"lanes", k.lanes}} {
				b.Run(fmt.Sprintf("%s/%s/alpha=%d/body=%s", k.name, s.name, s.alpha, run.body), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						run.fn()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k.words), "ns/word")
				})
			}
		}
	}
}

package numeric

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// A probe that wrongly said "no" would send every host to the Go body and no
// differential test would notice, so on Linux it must agree with the
// kernel's own feature list, for both halves: IFMA (this package's lanes and
// the NTT's narrow body) and DQ (the 64-bit bodies). A build without the
// assembly (non-amd64, or the purego tag) has no probe: there both halves
// must answer no, whatever the CPU, so every body is Go.
func TestCPUProbeMatchesCpuinfo(t *testing.T) {
	if !asmBodies {
		if ifma, dq := cpuAVX512(); ifma || dq || hasLanes || hasDQ {
			t.Fatalf("build without assembly: probe (%v, %v), package (%v, %v), want all false", ifma, dq, hasLanes, hasDQ)
		}
		t.Logf("build without assembly: cpuAVX512() = (ifma false, dq false); every body is Go")
		return
	}
	if runtime.GOOS != "linux" {
		t.Skip("/proc/cpuinfo is Linux-only")
	}
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	f := slices.Contains(flags, "avx512f")
	ifma, dq := cpuAVX512()
	if want := f && slices.Contains(flags, "avx512ifma"); ifma != want {
		t.Fatalf("cpuAVX512() ifma = %v, /proc/cpuinfo lists avx512f + avx512ifma: %v", ifma, want)
	}
	if want := f && slices.Contains(flags, "avx512dq"); dq != want {
		t.Fatalf("cpuAVX512() dq = %v, /proc/cpuinfo lists avx512f + avx512dq: %v", dq, want)
	}
	if ifma != hasLanes || dq != hasDQ {
		t.Fatalf("probe (%v, %v) differs from the package's (%v, %v)", ifma, dq, hasLanes, hasDQ)
	}
	t.Logf("cpuAVX512() = (ifma %v, dq %v), agreeing with /proc/cpuinfo", ifma, dq)
}

// The module's one body rule over prime widths 20–61 — the widest prime of
// each width and the narrowest, so both sides of 2^50 — with q = 2 and the
// odd neighbours of 2^50, against both answers of each half of the probe:
// IFMA52 for an odd q below 2^50 where the CPU has IFMA, else DQ for an odd
// q where it has DQ, else Go. On this host Modulus.Body is the rule fed the
// probe (which TestCPUProbeMatchesCpuinfo ties to /proc/cpuinfo).
func TestBodyRule(t *testing.T) {
	moduli := []uint64{2, 1<<50 - 1, 1<<50 + 1}
	for width := 20; width <= MaxModulusBits; width++ {
		low := uint64(1)<<(width-1) + 1
		for !IsPrime(low) {
			low += 2
		}
		moduli = append(moduli, low, prevPrime(1<<width-1))
	}
	ifmaHere, dqHere := cpuAVX512()
	taken := map[Body]int{}
	for _, q := range moduli {
		for _, ifma := range []bool{false, true} {
			for _, dq := range []bool{false, true} {
				want := BodyGo
				switch {
				case q%2 == 0:
				case ifma && bits.Len64(q) <= 50:
					want = BodyIFMA52
				case dq:
					want = BodyDQ
				}
				if got := bodyOf(q, ifma, dq); got != want {
					t.Fatalf("q=%d ifma=%v dq=%v: %v, want %v", q, ifma, dq, got, want)
				}
			}
		}
		got := NewModulus(q).Body()
		if want := bodyOf(q, ifmaHere, dqHere); got != want {
			t.Fatalf("q=%d: Body() = %v, the rule on this CPU %v", q, got, want)
		}
		taken[got]++
	}
	t.Logf("IFMA52 lanes %v, DQ lanes %v on this CPU; moduli by body: %v", ifmaHere, dqHere, taken)
}

// The derived facts live in functions (Body) because Modulus must stay
// seven words: the register ABI passes it whole beside two scalar
// arguments (Mul's call of ReduceWide), and an eighth word — a cached body,
// a run length — would spill those arguments to the stack.
func TestModulusWords(t *testing.T) {
	if got := unsafe.Sizeof(Modulus{}); got != 7*8 {
		t.Fatalf("Modulus is %d bytes, want seven words (56)", got)
	}
}

// laneRunLength's bound gives 4095 for the 40- and 45-bit primes, 12 just
// under 2^50 and at 2^50 − 1, the widest modulus with the IFMA52 lanes.
// dqRunLength is 2^(63−b) − 1 for a b-bit modulus, capped at 4095 from 51
// bits down.
func TestRunLengths(t *testing.T) {
	for q, want := range map[uint64]int{1099510054913: 4095, 35184371138561: 4095, 1125899904679937: 12, 1<<50 - 1: 12} {
		if got := laneRunLength(q); got != want {
			t.Fatalf("q=%d: lane run %d, want %d", q, got, want)
		}
	}
	for q, want := range map[uint64]int{
		3: 4095, 1<<50 - 1: 4095, 1<<51 - 1: 4095, 1 << 51: 2047, 4503599627124737: 2047,
		36028797018652673: 255, 288230376150876161: 31, 1152921504606584833: 7, 2305843009213554689: 3,
	} {
		if got := dqRunLength(q); got != want {
			t.Fatalf("q=%d: DQ run %d, want %d", q, got, want)
		}
	}
}

// The shape gate every vector kernel over rows adds to the body rule
// (vecBody, read by VecInnerProductPair and VecMACPair): the modulus's body
// for a length that is a nonzero multiple of 8 and at least one term, Go
// for any other length or no terms.
func TestInnerProductBodyRule(t *testing.T) {
	for _, q := range append(slices.Clone(testModuli), dqTestModuli...) {
		m := NewModulus(q)
		for _, n := range []int{0, 1, 7, 8, 12, 16, 64, 8192} {
			for _, terms := range []int{0, 1, 3} {
				want := m.Body()
				if n == 0 || n%8 != 0 || terms == 0 {
					want = BodyGo
				}
				if got := m.vecBody(n, terms); got != want {
					t.Fatalf("q=%d n=%d terms=%d: %v, want %v", q, n, terms, got, want)
				}
			}
		}
	}
}

// dqTestModuli are the widths the DQ lanes take in the benchmark sets — the
// B9 P primes (52 bits), q0 (55) and the P13 P primes (58) — beside
// testModuli's 60- and 61-bit primes.
var dqTestModuli = []uint64{4503599627124737, 36028797018652673, 288230376150876161}

// runDigits returns the digit counts a differential runs at length n: one
// to MaxLazyProducts+7 (past the Go body's run of 63 and the short vector
// runs) — only 3, 8, 9 and 13 for rows past 512 words — and, for one
// register's worth (n = 8), the vector body's own run boundary, one short
// of it, at it and one past it.
func runDigits(m Modulus, n int) []int {
	var ds []int
	for d := 1; d <= MaxLazyProducts+7; d++ {
		if n <= 512 || d == 3 || d == 8 || d == 9 || d == 13 {
			ds = append(ds, d)
		}
	}
	if n != 8 {
		return ds
	}
	run := 0
	switch m.vecBody(n, 1) {
	case BodyIFMA52:
		run = laneRunLength(m.Q)
	case BodyDQ:
		run = dqRunLength(m.Q)
	}
	for d := run - 1; d <= run+1; d++ {
		if d > MaxLazyProducts+7 {
			ds = append(ds, d)
		}
	}
	return ds
}

// laneRows returns count rows of n residues below q, each with its first
// column (and, given perm, its gathered-first column) maximal, or every
// column maximal.
func laneRows(rng *rand.Rand, count, n int, q uint64, perm []int, allMax bool) [][]uint64 {
	rows := make([][]uint64, count)
	for d := range rows {
		rows[d] = make([]uint64, n)
		for j := range rows[d] {
			if allMax {
				rows[d][j] = q - 1
			} else {
				rows[d][j] = rng.Uint64() % q
			}
		}
		rows[d][0] = q - 1
		if perm != nil {
			rows[d][perm[0]] = q - 1
		}
	}
	return rows
}

// requireBelow fails unless every word of rows is below q: a body that
// closes to [q, 2q) fails on that property by name, before any comparison
// with the Go body.
func requireBelow(t *testing.T, what string, q uint64, rows ...[]uint64) {
	t.Helper()
	for r, row := range rows {
		if j := slices.IndexFunc(row, func(v uint64) bool { return v >= q }); j >= 0 {
			t.Fatalf("%s: output %d word %d is %d, not below q = %d", what, r, j, row[j], q)
		}
	}
}

// The vector bodies must give the Go body's bits on every shape the
// evaluator feeds VecInnerProductPair: the digit counts of runDigits (past
// the Go body's run, past the IFMA52 run of 12 just under 2^50 and the DQ
// runs of 3 to 255 from 61 to 55 bits, and at each body's own run
// boundary), gathered and in order, overwriting and adding, random and
// all-(q−1) columns, at lengths 8 … 8192 and one that is no multiple of 8
// (the Go body takes it), on testModuli and the DQ widths. Where the CPU has
// no vector body both sides run the Go body; the log counts the body each
// call took.
func TestInnerProductLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ran := map[Body]int{}
	for _, q := range append(slices.Clone(testModuli), dqTestModuli...) {
		m := NewModulus(q)
		for _, n := range []int{8, 13, 64, 512, 8192} {
			perm := rng.Perm(n)
			for _, digits := range runDigits(m, n) {
				for _, allMax := range []bool{false, true} {
					x := laneRows(rng, digits, n, q, perm, allMax)
					k0 := laneRows(rng, digits, n, q, perm, allMax)
					k1 := laneRows(rng, digits, n, q, perm, allMax)
					for _, p := range [][]int{nil, perm} {
						for _, add := range []bool{false, true} {
							got0, got1 := laneRows(rng, 1, n, q, perm, allMax)[0], laneRows(rng, 1, n, q, perm, false)[0]
							want0, want1 := slices.Clone(got0), slices.Clone(got1)
							m.VecInnerProductPair(got0, got1, x, k0, k1, p, add)
							m.innerProductGo(want0, want1, x, k0, k1, p, add)
							requireBelow(t, fmt.Sprintf("q=%d n=%d digits=%d body=%v", q, n, digits, m.vecBody(n, digits)), q, got0, got1)
							if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
								t.Fatalf("q=%d n=%d digits=%d allMax=%v gather=%v add=%v body=%v: diverges from the Go body",
									q, n, digits, allMax, p != nil, add, m.vecBody(n, digits))
							}
							ran[m.vecBody(n, digits)]++
						}
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes %v, DQ lanes %v on this CPU; calls by body: %v", hasLanes, hasDQ, ran)
}

// The vector bodies refuse a permutation entry they would read outside the
// rows.
func TestInnerProductLanesPermBounds(t *testing.T) {
	for _, q := range []uint64{35184371138561, 288230376150876161} {
		m := NewModulus(q)
		if m.vecBody(16, 1) == BodyGo {
			t.Logf("q=%d: no vector body on this CPU", q)
			continue
		}
		rows := [][]uint64{make([]uint64, 16)}
		perm := make([]int, 16)
		for _, bad := range []int{16, -1} {
			perm[11] = bad
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("q=%d body %v perm entry %d: no panic", q, m.vecBody(16, 1), bad)
					}
				}()
				m.VecInnerProductPair(make([]uint64, 16), make([]uint64, 16), rows, rows, rows, perm, false)
			}()
		}
	}
}

// The linear-transform MAC on a vector body — VecInnerProductPair with the
// plaintext diagonals as the shared operand — must give the bits of
// macPairBlocked, VecMACPair's Go body, for the digit counts of runDigits over a 512-column block, shorter
// ones and 1000 columns (two blocks, the second short), random and
// all-(q−1) columns, adding onto the output or overwriting it, on testModuli
// and the DQ widths. The log counts the body each call took.
func TestMACLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ran := map[Body]int{}
	for _, q := range append(slices.Clone(testModuli), dqTestModuli...) {
		m := NewModulus(q)
		for _, n := range []int{8, 64, 512, 1000} {
			for _, terms := range runDigits(m, n) {
				for _, allMax := range []bool{false, true} {
					pt := laneRows(rng, terms, n, q, nil, allMax)
					r0 := laneRows(rng, terms, n, q, nil, allMax)
					r1 := laneRows(rng, terms, n, q, nil, allMax)
					for _, add := range []bool{false, true} {
						got0, got1 := laneRows(rng, 1, n, q, nil, allMax)[0], laneRows(rng, 1, n, q, nil, false)[0]
						want0, want1 := slices.Clone(got0), slices.Clone(got1)
						m.VecInnerProductPair(got0, got1, pt, r0, r1, nil, add)
						m.macPairBlocked(want0, want1, pt, r0, r1, add)
						requireBelow(t, fmt.Sprintf("q=%d n=%d terms=%d body=%v", q, n, terms, m.vecBody(n, terms)), q, got0, got1)
						if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
							t.Fatalf("q=%d n=%d terms=%d allMax=%v add=%v body=%v: diverges from macPairBlocked",
								q, n, terms, allMax, add, m.vecBody(n, terms))
						}
						ran[m.vecBody(n, terms)]++
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes %v, DQ lanes %v on this CPU; calls by body: %v", hasLanes, hasDQ, ran)
}

// VecMACPair — the vector body in calls of ltMacTerms terms, the
// column-blocked Go loop elsewhere — gives macPairBlocked's bits on term
// counts around the call boundaries (none, 1, 7–9, 16, 17), lengths that
// are and are not whole registers and a second, short column block (1000),
// adding and overwriting, random and all-(q−1) columns, on testModuli and
// the DQ widths.
func TestVecMACPairMatchesBlocked(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	ran := map[Body]int{}
	for _, q := range append(slices.Clone(testModuli), dqTestModuli...) {
		m := NewModulus(q)
		for _, n := range []int{8, 13, 64, 1000} {
			for _, terms := range []int{0, 1, 7, 8, 9, 16, 17} {
				for _, allMax := range []bool{false, true} {
					pt := laneRows(rng, terms, n, q, nil, allMax)
					r0 := laneRows(rng, terms, n, q, nil, allMax)
					r1 := laneRows(rng, terms, n, q, nil, allMax)
					for _, add := range []bool{false, true} {
						got0, got1 := laneRows(rng, 1, n, q, nil, allMax)[0], laneRows(rng, 1, n, q, nil, false)[0]
						want0, want1 := slices.Clone(got0), slices.Clone(got1)
						m.VecMACPair(got0, got1, pt, r0, r1, add)
						m.macPairBlocked(want0, want1, pt, r0, r1, add)
						requireBelow(t, fmt.Sprintf("VecMACPair q=%d n=%d terms=%d", q, n, terms), q, got0, got1)
						if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
							t.Fatalf("q=%d n=%d terms=%d allMax=%v add=%v body=%v: VecMACPair diverges from macPairBlocked",
								q, n, terms, allMax, add, m.vecBody(n, terms))
						}
						ran[m.vecBody(n, terms)]++
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes %v, DQ lanes %v on this CPU; calls by body: %v", hasLanes, hasDQ, ran)
}

// The DQ close at the edge of its budget. With V = V1·2^s + V0 and
// μ = 2^(64+s)/q − ε, the close's estimate falls short of ⌊V/q⌋ by
// ⌈δ − f⌉ with δ = V0/q + V1·ε/2^64 and f = frac(V/q), so it is two short
// — and the second conditional subtraction fires — only where V0/q is near
// 1 (q just above 2^s = 2^(b−1), V0 = 2^s − 1), ε is not small, V1 is large
// and V mod q is small. For each width b the test takes such a prime (the
// first above 2^(b−1) whose ε exceeds 1/2) and the widest prime below 2^b,
// and gives each of 256 coefficients a target sum V up to
// (q−1) + T·(q−1)², T = dqRunLength(q): the top of the range, sums crafted
// to meet all four conditions (V0 = 2^s − 1, V ≡ w mod q for small w, V1
// as large as the range allows), and random sums. The run's T products
// (q−1)·x_d and the open residue r (the add row) realize V. The DQ body
// must give V mod q (math/big) for every target; the log counts the
// targets whose estimate, modelled here, is two short.
func TestInnerProductDQAtBudget(t *testing.T) {
	if !hasDQ {
		t.Skip("no DQ lanes on this CPU")
	}
	rng := rand.New(rand.NewSource(36))
	const n = 256
	short := 0
	for _, b := range []int{21, 33, 45, 51, 53, 55, 58, 61} {
		s := uint(b - 1)
		near := uint64(1)<<s + 1
		for ; ; near += 2 {
			if _, rem := bits.Div64(1<<s, 0, near); 2*rem > near && IsPrime(near) {
				break
			}
		}
		for _, q := range []uint64{near, prevPrime(1<<b - 1)} {
			m := NewModulus(q)
			T := dqRunLength(q)
			mu := m.BarrettHi<<s | m.BarrettLo>>(64-s)
			bq, qm1, two := new(big.Int).SetUint64(q), new(big.Int).SetUint64(q-1), new(big.Int).Lsh(big.NewInt(1), s)
			top := new(big.Int).Mul(qm1, qm1)
			top.Mul(top, big.NewInt(int64(T))).Add(top, new(big.Int).SetUint64(q-2))
			// Crafted: A+1 ≡ (1+w)·(2^s)^-1 (mod q) makes V = A·2^s + 2^s − 1
			// ≡ w, and A is lifted by multiples of q as far as top allows.
			low := new(big.Int).Sub(two, big.NewInt(1))
			aMax := new(big.Int).Div(new(big.Int).Sub(top, low), two)
			hInv := new(big.Int).ModInverse(new(big.Int).Mod(two, bq), bq)
			x := make([][]uint64, T)
			k := make([][]uint64, T)
			for d := range x {
				x[d], k[d] = make([]uint64, n), make([]uint64, n)
			}
			r, want := make([]uint64, n), make([]uint64, n)
			for j := 0; j < n; j++ {
				var v *big.Int
				switch {
				case j < 8:
					v = new(big.Int).Sub(top, big.NewInt(int64(j)))
				case j < 128:
					a := new(big.Int).Mul(big.NewInt(int64(j-7)), hInv)
					a.Sub(a, big.NewInt(1)).Mod(a, bq)
					lift := new(big.Int).Sub(aMax, a)
					a.Add(a, lift.Div(lift, bq).Mul(lift, bq))
					v = a.Mul(a, two).Add(a, low)
				default:
					v = new(big.Int).Rand(rng, top)
				}
				sum, rem := new(big.Int).QuoRem(v, qm1, new(big.Int))
				r[j] = rem.Uint64()
				left := sum.Uint64()
				for d := range x {
					x[d][j], k[d][j] = min(left, q-1), q-1
					left -= x[d][j]
				}
				want[j] = new(big.Int).Mod(v, bq).Uint64()
				// The close's estimate: V1 = ⌊V/2^s⌋, t = ⌊V1·μ/2^64⌋.
				est, _ := bits.Mul64(new(big.Int).Rsh(v, s).Uint64(), mu)
				if new(big.Int).Sub(v, new(big.Int).Mul(new(big.Int).SetUint64(est), bq)).Cmp(new(big.Int).Lsh(bq, 1)) >= 0 {
					short++
				}
			}
			out0, out1 := slices.Clone(r), slices.Clone(r)
			m.innerProductVec(BodyDQ, out0, out1, x, k, k, nil, true)
			for j := range want {
				if out0[j] != want[j] || out1[j] != want[j] {
					t.Fatalf("q=%d (%d bits) run %d coefficient %d: DQ close gives (%d, %d), want %d", q, b, T, j, out0[j], out1[j], want[j])
				}
			}
		}
	}
	if short == 0 {
		t.Fatal("no target needed the second conditional subtraction: the test misses the close's edge")
	}
	t.Logf("%d of %d targets needed the close's second conditional subtraction", short, 16*n)
}

// prevPrime returns the greatest prime ≤ q.
func prevPrime(q uint64) uint64 {
	for !IsPrime(q) {
		q--
	}
	return q
}

// FuzzInnerProductBodies runs every vector body this host has — the IFMA52
// lanes where the modulus admits them, and the DQ lanes — against the Go
// body on fuzzed words: prime widths 20 to 61 bits, lengths 8 … 2048 (the
// vector bodies on the length's whole registers, VecInnerProductPair on all
// of it), 1 … 70 digits (past each body's run at the wide primes), gathered
// or in order, adding or overwriting. A pattern byte puts every word at
// q − 1 or plants 0, 1 and q − 1 among the fuzzed words.
func FuzzInnerProductBodies(f *testing.F) {
	f.Add(int64(1), uint8(61), uint16(8), uint8(4), uint8(0), false, false)
	f.Add(int64(2), uint8(58), uint16(512), uint8(32), uint8(1), true, true)
	f.Add(int64(3), uint8(55), uint16(2048), uint8(3), uint8(2), true, false)
	f.Add(int64(4), uint8(52), uint16(100), uint8(70), uint8(1), false, true)
	f.Add(int64(5), uint8(49), uint16(64), uint8(13), uint8(1), true, true)
	f.Add(int64(6), uint8(20), uint16(24), uint8(1), uint8(0), false, false)
	primes := map[int]uint64{}
	f.Fuzz(func(t *testing.T, seed int64, widthRaw uint8, nRaw uint16, digitsRaw, pattern uint8, gather, add bool) {
		width, n, digits := 20+int(widthRaw)%42, 8+int(nRaw)%2041, 1+int(digitsRaw)%70
		q, ok := primes[width]
		if !ok {
			ps, err := GenerateNTTPrimes(width, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			q = ps[0]
			primes[width] = q
		}
		m := NewModulus(q)
		rng := rand.New(rand.NewSource(seed))
		word := func() uint64 {
			switch pattern % 3 {
			case 1:
				return q - 1
			case 2:
				if c := rng.Intn(4); c < 3 {
					return []uint64{0, 1, q - 1}[c]
				}
			}
			return rng.Uint64() % q
		}
		rows := func(count int) [][]uint64 {
			rs := make([][]uint64, count)
			for d := range rs {
				rs[d] = make([]uint64, n)
				for j := range rs[d] {
					rs[d][j] = word()
				}
			}
			return rs
		}
		x, k0, k1, out := rows(digits), rows(digits), rows(digits), rows(2)
		var perm []int
		if gather {
			perm = rng.Perm(n)
		}
		want0, want1 := slices.Clone(out[0]), slices.Clone(out[1])
		m.innerProductGo(want0, want1, x, k0, k1, perm, add)
		got0, got1 := slices.Clone(out[0]), slices.Clone(out[1])
		m.VecInnerProductPair(got0, got1, x, k0, k1, perm, add)
		if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
			t.Fatalf("q=%d n=%d digits=%d gather=%v add=%v: VecInnerProductPair (body %v) diverges from the Go body",
				q, n, digits, gather, add, m.vecBody(n, digits))
		}
		// Each vector body on the length's whole registers, the perm cut to
		// them (a gathered entry past the cut is redrawn inside it).
		nv := n &^ 7
		if nv == 0 {
			return
		}
		var pv []int
		if perm != nil {
			pv = slices.Clone(perm[:nv])
			for j, p := range pv {
				if p >= nv {
					pv[j] = rng.Intn(nv)
				}
			}
		}
		cut := func(rs [][]uint64) [][]uint64 {
			c := make([][]uint64, len(rs))
			for d := range rs {
				c[d] = rs[d][:nv]
			}
			return c
		}
		xv, k0v, k1v := cut(x), cut(k0), cut(k1)
		want0, want1 = slices.Clone(out[0][:nv]), slices.Clone(out[1][:nv])
		m.innerProductGo(want0, want1, xv, k0v, k1v, pv, add)
		for _, b := range []Body{BodyIFMA52, BodyDQ} {
			if b != bodyOf(q, hasLanes && b == BodyIFMA52, hasDQ && b == BodyDQ) {
				continue // not on this CPU, or not for this modulus
			}
			got0, got1 := slices.Clone(out[0][:nv]), slices.Clone(out[1][:nv])
			m.innerProductVec(b, got0, got1, xv, k0v, k1v, pv, add)
			if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
				t.Fatalf("q=%d n=%d digits=%d gather=%v add=%v: body %v diverges from the Go body", q, nv, digits, gather, add, b)
			}
		}
	})
}

// The conversion's budgets at the widths the benchmark sets convert across
// (destination q, widest source y): the IFMA52 lanes' T·(h+1) + q < 2^52,
// capped at 4095 — 127 terms for 52-bit sources into a 45-bit limb, three
// into a prime just under 2^50 — and the DQ lanes' T·(y−1) < 2^64 with A1
// below 2^63: 31 terms for 58-bit sources into a 45-bit limb (P13's
// ModDown), 255 for q0 into one (digit 0), 16 for 58 into 58 bits, 2 for
// 61 into 61 bits. ConvertBody is the IFMA52 budget on a modulus whose body
// is BodyIFMA52, else the DQ budget on one with the DQ lanes, else Go.
func TestConvertBodyRule(t *testing.T) {
	const (
		q30, q45, q50 = 1073479681, 35184371138561, 1125899904679937
		q52, q55, q58 = 4503599627124737, 36028797018652673, 288230376150876161
		q61           = 2305843009213554689
	)
	most := func(fits func(q, yMax uint64, terms int) bool, q, y uint64) int {
		terms := 0
		for fits(q, y, terms+1) && terms < 1<<20 {
			terms++
		}
		return terms
	}
	for _, c := range []struct {
		q, y     uint64
		ifma, dq int
	}{
		{q45, q45, 4095, 131088}, {q45, q52, 127, 2032}, {q45, q55, 0, 255}, {q45, q58, 0, 31},
		{q50, q52, 3, 1638}, {q30, q52, 4095, 2048}, {q52, q52, 0, 1024}, {q55, q55, 0, 128},
		{q58, q45, 0, 31}, {q58, q58, 0, 16}, {q61, q58, 0, 3}, {q61, q61, 0, 2},
	} {
		if got := most(convertFitsLanes, c.q, c.y); got != c.ifma {
			t.Fatalf("q=%d y=%d: IFMA52 budget %d terms, want %d", c.q, c.y, got, c.ifma)
		}
		if got := most(convertFitsDQ, c.q, c.y); got != c.dq {
			t.Fatalf("q=%d y=%d: DQ budget %d terms, want %d", c.q, c.y, got, c.dq)
		}
		m := NewModulus(c.q)
		for _, terms := range []int{0, 1, c.ifma, c.ifma + 1, c.dq, c.dq + 1} {
			want := BodyGo
			switch {
			case terms < 1:
			case m.Body() == BodyIFMA52 && terms <= c.ifma:
				want = BodyIFMA52
			case hasDQ && terms <= c.dq:
				want = BodyDQ
			}
			if got := m.ConvertBody(c.y, terms); got != want {
				t.Fatalf("q=%d y=%d terms=%d: ConvertBody %v, want %v", c.q, c.y, terms, got, want)
			}
		}
	}
}

// Each conversion body closes every sum its budget admits: at the most
// terms the budget allows (up to 4095), every factor maximal — staged rows
// at yMax − 1, the k row at yMax − 1 (below 2^32 on DQ, where k is the
// source count), the table row and nb at q − 1, a seed row at q − 1 —
// ConvertLanes gives the canonical residue of the sum times 2^-64
// (math/big), every word below q, for IFMA52 destinations from 30 bits to
// just under 2^50 with sources up to 2^52 and DQ destinations from 30 to 61
// bits with sources up to 2^61. So each budget is enough, and 2^40 serves
// the IFMA52 close unreduced however small q is.
func TestConvertLanesAtBudget(t *testing.T) {
	fill := func(n int, v uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	const n = 16
	for _, c := range []struct {
		b    Body
		on   bool
		fits func(q, yMax uint64, terms int) bool
		qs   []uint64
		yTop uint64
	}{
		{BodyIFMA52, hasLanes, convertFitsLanes, []uint64{1073479681, 1099510054913, 35184371138561, 1125899904679937}, 1 << 52},
		{BodyDQ, hasDQ, convertFitsDQ, []uint64{1073479681, 35184371138561, 4503599627124737, 36028797018652673,
			288230376150876161, 2305843009213554689}, 1 << 61},
	} {
		if !c.on {
			t.Logf("no %v lanes on this CPU", c.b)
			continue
		}
		for _, q := range c.qs {
			m := NewModulus(q)
			for _, yMax := range []uint64{q, c.yTop} {
				for _, seeded := range []bool{false, true} {
					terms := 4095
					for terms > 0 && !c.fits(q, yMax, terms) {
						terms--
					}
					cols := terms - 1
					var seed [][]uint64
					if seeded {
						cols--
						seed = [][]uint64{fill(n, q-1)}
					}
					if cols < 1 {
						continue
					}
					kMax := yMax - 1
					if c.b == BodyDQ {
						kMax = min(kMax, 1<<32-1)
					}
					out := [][]uint64{make([]uint64, n)}
					ConvertLanes(c.b, out, seed, []Modulus{m}, [][]uint64{fill(cols+1, q-1)}, []uint64{q - 1},
						fill(cols*n+1, yMax-1), fill(n, kMax), 0, n, n, cols)
					bq := new(big.Int).SetUint64(q)
					big1 := func(v uint64) *big.Int { return new(big.Int).SetUint64(v) }
					sum := new(big.Int).Mul(big1(yMax-1), big1(q-1))
					sum.Mul(sum, big.NewInt(int64(cols)))
					sum.Add(sum, new(big.Int).Mul(big1(kMax), big1(q-1)))
					if seeded {
						sum.Add(sum, new(big.Int).Mul(big1(q-1), big1(q-1)))
					}
					r64 := new(big.Int).Lsh(big.NewInt(1), 64)
					sum.Mul(sum, r64.ModInverse(r64.Mod(r64, bq), bq)).Mod(sum, bq)
					requireBelow(t, fmt.Sprintf("%v q=%d yMax=%d seeded=%v at %d terms", c.b, q, yMax, seeded, terms), q, out[0])
					for i, got := range out[0] {
						if got != sum.Uint64() {
							t.Fatalf("%v q=%d yMax=%d seeded=%v at %d terms: coefficient %d is %d, want %d", c.b, q, yMax, seeded, terms, i, got, sum.Uint64())
						}
					}
				}
			}
		}
	}
}

package numeric

import (
	"math/big"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// A probe that wrongly said "no" would send every host to the Go body and no
// differential test would notice, so on Linux it must agree with the
// kernel's own feature list, for both halves: IFMA (this package's lanes and
// the NTT's narrow body) and DQ (the NTT's 64-bit body).
func TestCPUProbeMatchesCpuinfo(t *testing.T) {
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
	if ifma != hasLanes || dq != HasDQ() {
		t.Fatalf("probe (%v, %v) differs from the package's (%v, %v)", ifma, dq, hasLanes, HasDQ())
	}
	t.Logf("cpuAVX512() = (ifma %v, dq %v), agreeing with /proc/cpuinfo", ifma, dq)
}

// Every odd modulus below 2^50 has the lanes on a CPU that has them, and
// nothing else does; laneRunLength's bound gives 4095 for the 40- and
// 45-bit primes, 12 just under 2^50 and at 2^50 − 1, the widest modulus
// with lanes.
func TestModulusLanes(t *testing.T) {
	for _, q := range append(slices.Clone(testModuli), 2, 1<<50-1, 1<<50+1, 2251799813554177) {
		m := NewModulus(q)
		if want := hasLanes && q%2 == 1 && q < 1<<50; m.Lanes() != want {
			t.Fatalf("q=%d: Lanes() = %v, want %v", q, m.Lanes(), want)
		}
	}
	for q, want := range map[uint64]int{1099510054913: 4095, 35184371138561: 4095, 1125899904679937: 12, 1<<50 - 1: 12} {
		if got := laneRunLength(q); got != want {
			t.Fatalf("q=%d: lane run %d, want %d", q, got, want)
		}
	}
	t.Logf("IFMA52 lanes on this CPU: %v", hasLanes)
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

// The lanes must give the Go body's bits on every shape the evaluator
// feeds VecInnerProductPair: digits 1 … MaxLazyProducts+7 (past the Go
// body's run and, just under 2^50, past the lanes' run of 12, so both fold
// mid-chain), gathered and in order, overwriting and adding, random and
// all-(q−1) columns, at lengths 8 … 8192 and one that is no multiple of 8
// (the Go body takes it). Where the CPU has no IFMA52 lanes both sides run
// the Go body, and the log says so.
func TestInnerProductLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	ran := map[bool]int{}
	for _, q := range testModuli {
		m := NewModulus(q)
		for _, n := range []int{8, 13, 64, 512, 8192} {
			perm := rng.Perm(n)
			for digits := 1; digits <= MaxLazyProducts+7; digits++ {
				if n > 512 && digits != 3 && digits != 13 {
					continue // the long rows at 3 digits and past the 2^50 run
				}
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
							if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
								t.Fatalf("q=%d n=%d digits=%d allMax=%v gather=%v add=%v lanes=%v: diverges from the Go body",
									q, n, digits, allMax, p != nil, add, m.Lanes())
							}
							ran[m.Lanes() && n%8 == 0]++
						}
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes on this CPU: %v; lanes body ran %d times, Go body %d", hasLanes, ran[true], ran[false])
}

// The lanes refuse a permutation entry they would read outside the rows.
func TestInnerProductLanesPermBounds(t *testing.T) {
	m := NewModulus(35184371138561)
	if !m.Lanes() {
		t.Skip("no IFMA52 lanes on this CPU")
	}
	rows := [][]uint64{make([]uint64, 16)}
	perm := make([]int, 16)
	for _, bad := range []int{16, -1} {
		perm[11] = bad
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("perm entry %d: no panic", bad)
				}
			}()
			m.VecInnerProductPair(make([]uint64, 16), make([]uint64, 16), rows, rows, rows, perm, false)
		}()
	}
}

// macBlockGo is the Go body of a linear transform's plaintext MAC over one
// column block, as ckks groupMac runs it where the lanes do not: the paired
// 128-bit MAC of every diagonal, a fold every MaxLazyProducts−1 terms, and
// one deferred reduction, added onto out or overwriting it.
func macBlockGo(m Modulus, out0, out1 []uint64, pt, r0, r1 [][]uint64, add bool) {
	n := len(out0)
	h0, l0, h1, l1 := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	for k := range pt {
		if k > 0 && k%(MaxLazyProducts-1) == 0 {
			m.VecFoldWide(h0, l0)
			m.VecFoldWide(h1, l1)
		}
		VecMACWidePair(h0, l0, h1, l1, r0[k], r1[k], pt[k])
	}
	if add {
		m.VecReduceWideAdd(out0, h0, l0)
		m.VecReduceWideAdd(out1, h1, l1)
	} else {
		m.VecReduceWide(out0, h0, l0)
		m.VecReduceWide(out1, h1, l1)
	}
}

// The linear-transform MAC on the lanes — VecInnerProductPair with the
// plaintext diagonals as the shared operand — must give the bits of the
// MAC / fold / reduce sequence it replaces on lane limbs, for one to
// MaxLazyProducts+7 diagonals over a 512-column block and shorter ones,
// random and all-(q−1) columns, adding onto the output or overwriting it.
func TestMACLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	ran := map[bool]int{}
	for _, q := range testModuli {
		m := NewModulus(q)
		for _, n := range []int{8, 64, 512} {
			for terms := 1; terms <= MaxLazyProducts+7; terms++ {
				for _, allMax := range []bool{false, true} {
					pt := laneRows(rng, terms, n, q, nil, allMax)
					r0 := laneRows(rng, terms, n, q, nil, allMax)
					r1 := laneRows(rng, terms, n, q, nil, allMax)
					for _, add := range []bool{false, true} {
						got0, got1 := laneRows(rng, 1, n, q, nil, allMax)[0], laneRows(rng, 1, n, q, nil, false)[0]
						want0, want1 := slices.Clone(got0), slices.Clone(got1)
						m.VecInnerProductPair(got0, got1, pt, r0, r1, nil, add)
						macBlockGo(m, want0, want1, pt, r0, r1, add)
						if !slices.Equal(got0, want0) || !slices.Equal(got1, want1) {
							t.Fatalf("q=%d n=%d terms=%d allMax=%v add=%v lanes=%v: diverges from the MAC/fold/reduce body",
								q, n, terms, allMax, add, m.Lanes())
						}
						ran[m.Lanes()]++
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes on this CPU: %v; lanes body ran %d times, Go body %d", hasLanes, ran[true], ran[false])
}

// The conversion's lanes close every sum the rule admits: at the most terms
// LanesFit allows, every factor maximal — staged rows and the k row at
// yMax − 1, the table row and nb at q − 1, a seed row at q − 1 — ConvertLanes
// gives the canonical residue of the sum times 2^-64 (math/big), for
// destinations from 30 bits to just under 2^50 and sources up to 2^52. So
// the budget is enough, and 2^40 serves unreduced as the close's second
// constant however small q is.
func TestConvertLanesAtBudget(t *testing.T) {
	if !hasLanes {
		t.Skip("no IFMA52 lanes on this CPU")
	}
	fill := func(n int, v uint64) []uint64 {
		s := make([]uint64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	const n = 16
	for _, q := range []uint64{1073479681, 1099510054913, 35184371138561, 1125899904679937} {
		m := NewModulus(q)
		for _, yMax := range []uint64{q, 1 << 52} {
			for _, seeded := range []bool{false, true} {
				terms := 4095
				for terms > 0 && !m.LanesFit(yMax, terms) {
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
				out := [][]uint64{make([]uint64, n)}
				ConvertLanes(out, seed, []Modulus{m}, [][]uint64{fill(cols+1, q-1)}, []uint64{q - 1},
					fill(cols*n, yMax-1), fill(n, yMax-1), 0, n, n, cols)
				bq := new(big.Int).SetUint64(q)
				prod := new(big.Int).Mul(new(big.Int).SetUint64(yMax-1), new(big.Int).SetUint64(q-1))
				sum := new(big.Int).Mul(prod, big.NewInt(int64(cols+1)))
				if seeded {
					sum.Add(sum, new(big.Int).Mul(new(big.Int).SetUint64(q-1), new(big.Int).SetUint64(q-1)))
				}
				r64 := new(big.Int).Lsh(big.NewInt(1), 64)
				sum.Mul(sum, r64.ModInverse(r64.Mod(r64, bq), bq)).Mod(sum, bq)
				for c, got := range out[0] {
					if got != sum.Uint64() {
						t.Fatalf("q=%d yMax=%d seeded=%v at %d terms: coefficient %d is %d, want %d", q, yMax, seeded, terms, c, got, sum.Uint64())
					}
				}
			}
		}
	}
}

package ntt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"poseidon/internal/numeric"
)

// hasLanes reports whether this CPU runs the IFMA52 lanes: every odd modulus
// below 2^50 has that body exactly then (numeric.Modulus.Body). hasDQ
// reports the AVX-512 DQ lanes, the body of every wider one.
var (
	hasLanes = numeric.NewModulus(65537).Body() == numeric.BodyIFMA52
	hasDQ    = numeric.NewModulus(2305843009213554689).Body() == numeric.BodyDQ
)

// The lanes must give the Go bodies' bits on every transform a table
// supports up to 2^14, at every fusion degree, on primes of 31, 40, 45 and
// 50 bits (4q just under 2^52 at 50) and at every band edge, forward,
// inverse and round trip; a 51-bit prime must not take the IFMA52 body.
// Where the CPU has no IFMA52 lanes both sides run the Go or the DQ body,
// and the log says which ran.
func TestLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ran := map[numeric.Body]int{}
	for logN := 3; logN <= 14; logN++ {
		n := 1 << uint(logN)
		for _, bitSize := range []int{31, 40, 45, 50, 51} {
			tab := mustTable(t, n, bitSize)
			if want := hasLanes && bitSize <= 50 && logN >= 6; (tab.body == numeric.BodyIFMA52) != want {
				t.Fatalf("logN=%d bits=%d: body %v, want IFMA52 %v", logN, bitSize, tab.body, want)
			}
			ran[tab.body]++
			ref := goBody(tab)
			polys := edgePolys(rng, n, tab.Mod.Q)
			if logN > 10 {
				polys = polys[2:5] // all q−1, alternating, one random
			}
			for k := 1; k <= 6; k++ {
				for pi, p := range polys {
					gotF, wantF := slices.Clone(p), slices.Clone(p)
					FusedPlan{Table: tab, K: k}.Forward(gotF)
					FusedPlan{Table: ref, K: k}.Forward(wantF)
					gotI, wantI := slices.Clone(p), slices.Clone(p)
					InverseFusedPlan{Table: tab, K: k}.Inverse(gotI)
					InverseFusedPlan{Table: ref, K: k}.Inverse(wantI)
					for i := range p {
						if gotF[i] != wantF[i] || gotI[i] != wantI[i] {
							t.Fatalf("logN=%d bits=%d k=%d poly=%d body=%v: diverges from the Go body at %d (fwd %d want %d, inv %d want %d)",
								logN, bitSize, k, pi, tab.body, i, gotF[i], wantF[i], gotI[i], wantI[i])
						}
					}
					InverseFusedPlan{Table: tab, K: k}.Inverse(gotF)
					if !slices.Equal(gotF, p) {
						t.Fatalf("logN=%d bits=%d k=%d poly=%d body=%v: round trip differs from the input",
							logN, bitSize, k, pi, tab.body)
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes on this CPU: %v; tables by body: %v", hasLanes, ran)
}

// bandRows returns the differential's inputs for one direction: a fill row
// at each edge value, an alternating 0 / top row and four random rows
// anywhere in [0, top] — the whole band the direction accepts (top = 4q − 1
// forward, 2q − 1 inverse).
func bandRows(rng *rand.Rand, n int, top uint64, edges ...uint64) [][]uint64 {
	var rows [][]uint64
	for _, v := range edges {
		row := make([]uint64, n)
		for i := range row {
			row[i] = v
		}
		rows = append(rows, row)
	}
	alt := make([]uint64, n)
	for i := 1; i < n; i += 2 {
		alt[i] = top
	}
	rows = append(rows, alt)
	for r := 0; r < 4; r++ {
		row := make([]uint64, n)
		for i := range row {
			row[i] = rng.Uint64() % (top + 1)
		}
		rows = append(rows, row)
	}
	return rows
}

// The DQ body must give the Go body's words on every transform from N = 64
// to 8192 at every fusion degree, on primes of 50 bits (an IFMA52 prime,
// forced onto DQ) through 61 (the widest modulus, 4q just under 2^63), on
// random rows and on the band edges: 0, q − 1, 2q − 1 and 4q − 1 into the
// forward transform, 0 and 2q − 1 into the inverse. Where the CPU has no
// DQ both sides run the Go body, and the log says so.
func TestDQMatchesGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	ran := map[numeric.Body]int{}
	for logN := 6; logN <= 13; logN++ {
		n := 1 << uint(logN)
		for _, bitSize := range []int{50, 52, 55, 58, 61} {
			tab := mustTable(t, n, bitSize)
			dq, ref := dqBody(tab), goBody(tab)
			ran[dq.body]++
			q := tab.Mod.Q
			fwd := bandRows(rng, n, 4*q-1, 0, q-1, 2*q-1, 4*q-1)
			inv := bandRows(rng, n, 2*q-1, 0, 2*q-1)
			for k := 1; k <= 6; k++ {
				for ri, row := range fwd {
					got, want := slices.Clone(row), slices.Clone(row)
					FusedPlan{Table: dq, K: k}.Forward(got)
					FusedPlan{Table: ref, K: k}.Forward(want)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("logN=%d bits=%d k=%d forward row %d: DQ %d, Go %d at %d", logN, bitSize, k, ri, got[i], want[i], i)
					}
				}
				for ri, row := range inv {
					got, want := slices.Clone(row), slices.Clone(row)
					InverseFusedPlan{Table: dq, K: k}.Inverse(got)
					InverseFusedPlan{Table: ref, K: k}.Inverse(want)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("logN=%d bits=%d k=%d inverse row %d: DQ %d, Go %d at %d", logN, bitSize, k, ri, got[i], want[i], i)
					}
				}
			}
		}
	}
	t.Logf("AVX-512 DQ on this CPU: %v; tables by body compared with Go: %v", hasDQ, ran)
}

// firstDiff returns the first index where a and b differ, or −1.
func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// A table's body is its modulus's (numeric.Modulus.Body, whose rule
// numeric's TestBodyRule checks) from N = 64 up, and Go below, where the
// vector bodies' passes are not whole registers.
func TestTableBody(t *testing.T) {
	for _, bitSize := range []int{31, 45, 50, 51, 52, 55, 58, 61} {
		for _, logN := range []int{3, 5, 6, 13} {
			tab := mustTable(t, 1<<uint(logN), bitSize)
			want := tab.Mod.Body()
			if logN < 6 {
				want = numeric.BodyGo
			}
			if tab.body != want {
				t.Fatalf("bits=%d logN=%d: NewTable chose %v, want %v", bitSize, logN, tab.body, want)
			}
		}
	}
}

// FuzzNTTBodies runs every body this host has — the one NewTable chose and
// the DQ body — against the Go body on fuzzed words, prime widths (20 to
// 61 bits), sizes (N = 64 … 2048) and fusion degrees: forward on words
// anywhere in [0, 4q), inverse anywhere in [0, 2q).
func FuzzNTTBodies(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, uint8(61), uint8(7), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(55), uint8(13), uint8(3))
	f.Add([]byte{0}, uint8(50), uint8(6), uint8(1))
	f.Add([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 3}, uint8(58), uint8(11), uint8(2))
	tables := map[[2]int]*Table{}
	f.Fuzz(func(t *testing.T, words []byte, bitsRaw, logNRaw, kRaw uint8) {
		bitSize, logN, k := 20+int(bitsRaw)%42, 6+int(logNRaw)%6, 1+int(kRaw)%6
		tab := tables[[2]int{bitSize, logN}]
		if tab == nil {
			tab = mustTable(t, 1<<uint(logN), bitSize)
			tables[[2]int{bitSize, logN}] = tab
		}
		q := tab.Mod.Q
		fwd, inv := make([]uint64, tab.N), make([]uint64, tab.N)
		for i := range fwd {
			var b [8]byte
			for j := range b {
				if len(words) > 0 {
					b[j] = words[(8*i+j)%len(words)]
				}
			}
			// + i: a short input still gives a row of distinct words.
			w := binary.LittleEndian.Uint64(b[:]) + uint64(i)
			fwd[i], inv[i] = w%(4*q), w%(2*q)
		}
		ref := goBody(tab)
		wantF, wantI := slices.Clone(fwd), slices.Clone(inv)
		FusedPlan{Table: ref, K: k}.Forward(wantF)
		InverseFusedPlan{Table: ref, K: k}.Inverse(wantI)
		for _, body := range []*Table{tab, dqBody(tab)} {
			gotF, gotI := slices.Clone(fwd), slices.Clone(inv)
			FusedPlan{Table: body, K: k}.Forward(gotF)
			InverseFusedPlan{Table: body, K: k}.Inverse(gotI)
			if i := firstDiff(gotF, wantF); i >= 0 {
				t.Fatalf("bits=%d logN=%d k=%d forward, body %v: %d, Go %d at %d", bitSize, logN, k, body.body, gotF[i], wantF[i], i)
			}
			if i := firstDiff(gotI, wantI); i >= 0 {
				t.Fatalf("bits=%d logN=%d k=%d inverse, body %v: %d, Go %d at %d", bitSize, logN, k, body.body, gotI[i], wantI[i], i)
			}
		}
	})
}

// BenchmarkLanes reads the pass bodies without the harness: the default
// fused plan, each iteration a burst of the table's vector body and a burst
// of the Go body in alternating order, so host drift lands on both. On the
// 45-bit prime the vector body is the IFMA52 lanes (lanes-ns/bfly), on the
// 55- and 58-bit primes (q0 and the P primes' widths) the DQ lanes
// (dq-ns/bfly). Reports ns a butterfly (N/2 · log N butterflies a
// transform) for each body.
//
//	go test -run '^$' -bench BenchmarkLanes -benchtime 2000x -count 5 ./internal/ntt/
func BenchmarkLanes(b *testing.B) {
	const burst = 8
	for _, bitSize := range []int{45, 55, 58} {
		for _, logN := range []int{9, 11, 13} {
			for _, dir := range []string{"fwd", "inv"} {
				b.Run(fmt.Sprintf("q%d/%s/n%d", bitSize, dir, logN), func(b *testing.B) {
					tab := mustTable(b, 1<<uint(logN), bitSize)
					unit := map[numeric.Body]string{numeric.BodyIFMA52: "lanes-ns/bfly", numeric.BodyDQ: "dq-ns/bfly"}[tab.body]
					if unit == "" {
						b.Skip("no vector body for this prime on this CPU")
					}
					bodies := [2]*Table{tab, goBody(tab)}
					a := randomPoly(rand.New(rand.NewSource(1)), tab.N, tab.Mod.Q)
					run := func(t *Table) {
						for r := 0; r < burst; r++ {
							if dir == "fwd" {
								FusedPlan{Table: t, K: DefaultFusionDegree}.Forward(a)
							} else {
								InverseFusedPlan{Table: t, K: DefaultFusionDegree}.Inverse(a)
							}
						}
					}
					var spent [2]time.Duration
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for j := 0; j < 2; j++ {
							side := (i + j) % 2
							start := time.Now()
							run(bodies[side])
							spent[side] += time.Since(start)
						}
					}
					bfly := float64(b.N) * burst * float64(tab.N/2*tab.LogN)
					b.ReportMetric(float64(spent[0].Nanoseconds())/bfly, unit)
					b.ReportMetric(float64(spent[1].Nanoseconds())/bfly, "go-ns/bfly")
				})
			}
		}
	}
}

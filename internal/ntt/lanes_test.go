package ntt

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"poseidon/internal/numeric"
)

// hasLanes reports whether this CPU runs the IFMA52 lanes: every odd modulus
// below 2^50 gets them exactly then (numeric.NewModulus holds the probe).
var hasLanes = numeric.NewModulus(65537).Lanes()

// The lanes must give the Go bodies' bits on every transform a table
// supports up to 2^14, at every fusion degree, on primes of 31, 40, 45 and
// 50 bits (4q just under 2^52 at 50) and at every band edge, forward,
// inverse and round trip; a 51-bit prime must keep the Go body. Where the
// CPU has no IFMA52 lanes both sides run the Go body, and the log says so.
func TestLanesMatchGoBody(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ran := map[bool]int{}
	for logN := 3; logN <= 14; logN++ {
		n := 1 << uint(logN)
		for _, bitSize := range []int{31, 40, 45, 50, 51} {
			tab := mustTable(t, n, bitSize)
			if want := hasLanes && bitSize <= 50 && logN >= 6; tab.lanes != want {
				t.Fatalf("logN=%d bits=%d: lanes=%v, want %v", logN, bitSize, tab.lanes, want)
			}
			ran[tab.lanes]++
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
							t.Fatalf("logN=%d bits=%d k=%d poly=%d lanes=%v: diverges from the Go body at %d (fwd %d want %d, inv %d want %d)",
								logN, bitSize, k, pi, tab.lanes, i, gotF[i], wantF[i], gotI[i], wantI[i])
						}
					}
					InverseFusedPlan{Table: tab, K: k}.Inverse(gotF)
					if !slices.Equal(gotF, p) {
						t.Fatalf("logN=%d bits=%d k=%d poly=%d lanes=%v: round trip differs from the input",
							logN, bitSize, k, pi, tab.lanes)
					}
				}
			}
		}
	}
	t.Logf("IFMA52 lanes on this CPU: %v; lanes body ran on %d tables, Go body on %d", hasLanes, ran[true], ran[false])
}

// BenchmarkLanes reads the two pass bodies without the harness: the default
// fused plan on a 45-bit prime, each iteration a burst of the lanes and a
// burst of the Go body in alternating order, so host drift lands on both.
// Reports ns a butterfly (N/2 · log N butterflies a transform) for each.
//
//	go test -run '^$' -bench BenchmarkLanes -benchtime 2000x -count 5 ./internal/ntt/
func BenchmarkLanes(b *testing.B) {
	const burst = 8
	for _, logN := range []int{9, 11, 13} {
		for _, dir := range []string{"fwd", "inv"} {
			b.Run(fmt.Sprintf("%s/n%d", dir, logN), func(b *testing.B) {
				tab := mustTable(b, 1<<uint(logN), 45)
				if !tab.lanes {
					b.Skip("no IFMA52 lanes on this CPU")
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
						body := (i + j) % 2
						start := time.Now()
						run(bodies[body])
						spent[body] += time.Since(start)
					}
				}
				bfly := float64(b.N) * burst * float64(tab.N/2*tab.LogN)
				b.ReportMetric(float64(spent[0].Nanoseconds())/bfly, "lanes-ns/bfly")
				b.ReportMetric(float64(spent[1].Nanoseconds())/bfly, "go-ns/bfly")
			})
		}
	}
}

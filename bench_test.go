// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation. Run `go test -bench=. -benchmem` to regenerate the
// numbers; `cmd/poseidon` prints the same data as formatted tables.
package poseidon

import (
	"fmt"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/automorph"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
	"poseidon/internal/workloads"
)

// --- Table II / Fig 10: NTT-fusion -----------------------------------------

// BenchmarkTable2NTTFusion measures the software NTT under each fusion
// degree k — the real-execution counterpart of the Table II analytics.
func BenchmarkTable2NTTFusion(b *testing.B) {
	n := 4096
	ps, err := numeric.GenerateNTTPrimes(45, 12, 1)
	if err != nil {
		b.Fatal(err)
	}
	tab, err := ntt.NewTable(n, ps[0])
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % ps[0]
	}
	// tab.Forward is the default k = 3 plan; the radix-2 row is the k = 1 one.
	radix2, err := ntt.NewFusedPlan(tab, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("radix2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			radix2.Forward(a)
		}
	})
	for k := 2; k <= 4; k++ {
		plan, err := ntt.NewFusedPlan(tab, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fused_k%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan.Forward(a)
			}
		})
	}
}

// BenchmarkFig10ModelSweep evaluates the resource/time model across k.
func BenchmarkFig10ModelSweep(b *testing.B) {
	cr := arch.NewCoreResources(arch.U280(), 16)
	for i := 0; i < b.N; i++ {
		for k := 1; k <= 6; k++ {
			_ = cr.NTTCoresAtK(k)
			_ = cr.NTTTimeAtK(k)
		}
	}
}

// --- Table IV / Fig 7: basic operations ------------------------------------

// BenchmarkTable4ModelThroughput prices the basic operations on the
// accelerator model (the Poseidon column of Table IV).
func BenchmarkTable4ModelThroughput(b *testing.B) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	l := m.Params.Limbs
	for i := 0; i < b.N; i++ {
		_ = m.Latency(m.PMult(l))
		_ = m.Latency(m.CMult(l))
		_ = m.Latency(m.NTTOp(l))
		_ = m.Latency(m.Keyswitch(l))
		_ = m.Latency(m.Rotation(l))
		_ = m.Latency(m.Rescale(l))
	}
}

// --- Tables VI/VII/IX/X, Figs 8/9/11/12: benchmark simulation ---------------

// BenchmarkTable6FullSystem simulates all four paper benchmarks on the
// default design point.
func BenchmarkTable6FullSystem(b *testing.B) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	em := arch.DefaultEnergy()
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		b.Run(tr.Name, func(b *testing.B) {
			var rep arch.Report
			for i := 0; i < b.N; i++ {
				rep = arch.Simulate(m, em, tr)
			}
			b.ReportMetric(rep.TotalTime*1e3, "modeled-ms")
			b.ReportMetric(rep.AvgBandwidthUtil*100, "bw-util-%")
			b.ReportMetric(rep.EDP, "EDP-Js")
		})
	}
}

// BenchmarkTable9AutoAblation compares HFAuto against the naive
// automorphism core across the benchmarks.
func BenchmarkTable9AutoAblation(b *testing.B) {
	em := arch.DefaultEnergy()
	for _, kind := range []arch.AutoKind{arch.HFAutoCore, arch.NaiveAutoCore} {
		cfg := arch.U280()
		cfg.Auto = kind
		m, err := arch.NewModel(cfg, arch.PaperParams())
		if err != nil {
			b.Fatal(err)
		}
		tr := workloads.ResNet20(workloads.PaperSpec())
		b.Run(kind.String(), func(b *testing.B) {
			var rep arch.Report
			for i := 0; i < b.N; i++ {
				rep = arch.Simulate(m, em, tr)
			}
			b.ReportMetric(rep.TotalTime*1e3, "modeled-ms")
		})
	}
}

// BenchmarkFig11LaneSweep runs the lane-sensitivity study.
func BenchmarkFig11LaneSweep(b *testing.B) {
	em := arch.DefaultEnergy()
	tr := workloads.ResNet20(workloads.PaperSpec())
	for _, lanes := range []int{64, 128, 256, 512} {
		cfg := arch.U280()
		cfg.Lanes = lanes
		m, err := arch.NewModel(cfg, arch.PaperParams())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("lanes%d", lanes), func(b *testing.B) {
			var rep arch.Report
			for i := 0; i < b.N; i++ {
				rep = arch.Simulate(m, em, tr)
			}
			b.ReportMetric(rep.TotalTime*1e3, "modeled-ms")
			b.ReportMetric(rep.EDP, "EDP-Js")
		})
	}
}

// --- Table VIII: automorphism cores (software execution) -------------------

// BenchmarkTable8Automorphism compares the naive and HFAuto software
// implementations on a full-size vector.
func BenchmarkTable8Automorphism(b *testing.B) {
	n := 65536
	mod := numeric.NewModulus(1152921504606584833)
	rng := rand.New(rand.NewSource(2))
	src := make([]uint64, n)
	for i := range src {
		src[i] = rng.Uint64() % mod.Q
	}
	dst := make([]uint64, n)

	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			automorph.Naive(dst, src, 5, mod)
		}
	})
	h, err := automorph.NewHFAuto(n, 512)
	if err != nil {
		b.Fatal(err)
	}
	m := h.Precompute(5)
	b.Run("hfauto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.Apply(dst, src, mod)
		}
	})
}

// --- Fig 12 / Table X: energy ------------------------------------------------

// BenchmarkFig12Energy computes the per-benchmark energy breakdowns.
func BenchmarkFig12Energy(b *testing.B) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		b.Fatal(err)
	}
	em := arch.DefaultEnergy()
	benches := workloads.All(workloads.PaperSpec())
	for i := 0; i < b.N; i++ {
		for _, tr := range benches {
			_ = arch.SimulateEnergyBreakdown(m, em, tr)
		}
	}
}

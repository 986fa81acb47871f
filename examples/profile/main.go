// Profile: write an FHE program once, run it functionally under live
// telemetry, and price the recorded operation trace on different Poseidon
// design points — the observe → export → calibrate loop that connects the
// cryptographic library to the accelerator model.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"poseidon"
)

func main() {
	params, err := poseidon.NewParameters(poseidon.ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		log.Fatal(err)
	}
	kit := poseidon.NewKit(params, 314)

	// Two sinks on one evaluator, each hearing every OpEvent: the recorder
	// keeps the op sequence for accelerator pricing, the collector each op's
	// wall time. EnableTelemetry fans the collector in beside the recorder.
	rec := poseidon.NewTraceRecorder("weighted-score")
	rec.SetWorkers(kit.Eval.Workers())
	kit.Eval.SetObserver(rec)
	collector := kit.EnableTelemetry("weighted-score")

	// The program: a weighted score with a rotate-and-sum reduction.
	rec.SetPhase("inner-product")
	x := kit.EncryptReals([]float64{0.2, -0.7, 1.1, 0.4, -0.3, 0.9, 0.1, -0.5})
	w := kit.Enc.EncodeReal([]float64{1, 2, -1, 0.5, 3, -2, 1.5, 0.25},
		params.MaxLevel(), params.Scale)
	score := kit.Eval.Rescale(kit.Eval.MulPlain(x, w))
	score = kit.InnerSum(score, 8)
	rec.SetPhase("activation")
	act := kit.Eval.Rescale(kit.Eval.MulRelin(score, score))

	fmt.Printf("functional result (x·w)² = %.4f\n",
		real(kit.DecryptValues(act)[0]))

	// What the telemetry layer saw: the Prometheus exposition a /metrics
	// scrape would serve (poseidon.StartMetricsServer mounts it over HTTP).
	fmt.Println("\nmeasured op latencies (Prometheus text format, excerpt):")
	var prom strings.Builder
	collector.Snapshot().WritePrometheus(&prom)
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "poseidon_op_total") ||
			strings.Contains(line, `quantile="0.99"`) {
			fmt.Println("  " + line)
		}
	}

	// Price the recorded trace across design points.
	tr := rec.Trace()
	fmt.Printf("\nrecorded %d basic operations; modeled cost at N=2^16, L=44:\n", len(tr.Ops))
	em := poseidon.DefaultEnergy()
	for _, pt := range []struct {
		name string
		cfg  poseidon.Config
	}{
		{"U280, 512 lanes, HFAuto", poseidon.U280()},
		{"U280, 128 lanes", withLanes(poseidon.U280(), 128)},
		{"U280, naive automorphism", withNaive(poseidon.U280())},
		{"SmartSSD (near-data)", poseidon.SmartSSD()},
	} {
		model, err := poseidon.NewModel(pt.cfg, poseidon.PaperParams())
		if err != nil {
			log.Fatal(err)
		}
		rep := poseidon.Simulate(model, em, tr)
		fmt.Printf("  %-28s %8.3f ms   %.3g J\n", pt.name, rep.TotalTime*1e3, rep.TotalEnergy)
	}

	// Calibrate: join the measured wall times with the U280 model's
	// predictions — the per-kind ratio is this machine's distance from the
	// modeled accelerator.
	model, err := poseidon.NewModel(poseidon.U280(), poseidon.PaperParams())
	if err != nil {
		log.Fatal(err)
	}
	calib := poseidon.Calibrate(collector.Snapshot(), model)
	fmt.Println("\nmeasured vs modeled (U280 design point):")
	fmt.Fprintf(os.Stdout, "  %-10s %6s %12s %12s %8s\n", "op", "count", "measured", "modeled", "ratio")
	for _, kc := range calib.PerKind {
		fmt.Printf("  %-10s %6d %10.3gs %10.3gs %8.1f\n",
			kc.Name, kc.Count, kc.MeasuredSec, kc.ModeledSec, kc.Ratio)
	}
	fmt.Printf("  drift: geomean %.1f× (min %.1f×, max %.1f×)\n",
		calib.GeomeanRatio, calib.MinRatio, calib.MaxRatio)
}

func withLanes(c poseidon.Config, lanes int) poseidon.Config {
	c.Lanes = lanes
	return c
}

func withNaive(c poseidon.Config) poseidon.Config {
	c.Auto = poseidon.NaiveAutoCore
	return c
}

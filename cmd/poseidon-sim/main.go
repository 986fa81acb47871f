// Command poseidon-sim runs an operation trace on a configurable Poseidon
// design point: load a JSON trace (or one of the built-in benchmarks),
// choose lanes / fusion degree / automorphism core / bandwidth, and get the
// full timing, bandwidth, operator and energy report.
//
// Examples:
//
//	poseidon-sim -benchmark LR
//	poseidon-sim -benchmark ResNet-20 -lanes 256 -auto naive
//	poseidon-sim -trace mytrace.json -hbm 230 -k 2
//	poseidon-sim -benchmark LSTM -dump lstm.json   # export the trace
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"poseidon/internal/arch"
	"poseidon/internal/report"
	"poseidon/internal/trace"
	"poseidon/internal/workloads"
)

func main() {
	var (
		benchmark = flag.String("benchmark", "", "built-in workload: LR, LSTM, ResNet-20, PackedBootstrapping")
		traceFile = flag.String("trace", "", "JSON trace file to simulate")
		dump      = flag.String("dump", "", "write the selected trace as JSON and exit")
		lanes     = flag.Int("lanes", 512, "vector lanes")
		fusionDeg = flag.Int("k", 3, "NTT fusion degree")
		freq      = flag.Float64("freq", 300, "clock, MHz")
		hbm       = flag.Float64("hbm", 460, "peak HBM bandwidth, GB/s")
		auto      = flag.String("auto", "hfauto", "automorphism core: hfauto or naive")
		logN      = flag.Int("logn", 16, "ring degree log2")
		limbs     = flag.Int("limbs", 45, "top-level RNS limbs")
		alpha     = flag.Int("alpha", 4, "special primes (keyswitch digit width)")
	)
	flag.Parse()

	tr, err := selectTrace(*benchmark, *traceFile, *logN, *limbs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tr.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d ops)\n", *dump, len(tr.Ops))
		return
	}

	cfg := arch.U280()
	cfg.Lanes = *lanes
	cfg.FusionK = *fusionDeg
	cfg.FreqMHz = *freq
	cfg.HBMGBs = *hbm
	switch *auto {
	case "hfauto":
		cfg.Auto = arch.HFAutoCore
	case "naive":
		cfg.Auto = arch.NaiveAutoCore
	default:
		fmt.Fprintf(os.Stderr, "unknown -auto %q\n", *auto)
		os.Exit(2)
	}
	model, err := arch.NewModel(cfg, arch.FHEParams{LogN: *logN, Limbs: *limbs, Alpha: *alpha})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	em := arch.DefaultEnergy()
	rep := arch.Simulate(model, em, tr)

	head := report.New(fmt.Sprintf("%s on %d lanes, k=%d, %s, %.0f GB/s",
		tr.Name, cfg.Lanes, cfg.FusionK, cfg.Auto, cfg.HBMGBs),
		"metric", "value")
	head.AddRow("total time (ms)", rep.TotalTime*1e3)
	if rep.Workers > 0 {
		head.AddRow("capture workers", float64(rep.Workers))
	}
	head.AddRow("HBM traffic (GB)", rep.TotalBytes/1e9)
	head.AddRow("avg bandwidth utilization (%)", rep.AvgBandwidthUtil*100)
	head.AddRow("energy (J)", rep.TotalEnergy)
	head.AddRow("EDP (J·s)", rep.EDP)
	head.Write(os.Stdout)

	byKind := report.New("time by basic operation", "operation", "count", "time (ms)", "share (%)", "min bw util (%)")
	for _, st := range rep.KindsByTime() {
		byKind.AddRow(st.Kind.String(), st.Count, st.Time*1e3,
			st.Time/rep.TotalTime*100, st.MinUtil*100)
	}
	byKind.Write(os.Stdout)

	byOp := report.New("time attributed to operator cores", "core", "time (ms)", "share (%)")
	for _, op := range []arch.Operator{arch.MA, arch.MM, arch.NTT, arch.Auto, arch.Mem} {
		byOp.AddRow(op.String(), rep.ByOperator[op]*1e3, rep.ByOperator[op]/rep.TotalTime*100)
	}
	byOp.Write(os.Stdout)

	if len(rep.ByTag) > 1 {
		byTag := report.New("time by workload phase", "phase", "time (ms)", "share (%)")
		for _, tag := range sortedTags(rep.ByTag) {
			byTag.AddRow(tag, rep.ByTag[tag]*1e3, rep.ByTag[tag]/rep.TotalTime*100)
		}
		byTag.Write(os.Stdout)
	}
}

func sortedTags(m map[string]float64) []string {
	tags := make([]string, 0, len(m))
	for tag := range m {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(i, j int) bool { return m[tags[i]] > m[tags[j]] })
	return tags
}

func selectTrace(benchmark, traceFile string, logN, limbs int) (*trace.Trace, error) {
	if benchmark != "" && traceFile != "" {
		return nil, fmt.Errorf("choose either -benchmark or -trace, not both")
	}
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadJSON(f)
	}
	spec := workloads.Spec{LogN: logN, MaxLimbs: limbs, Slots: 1 << uint(logN-1)}
	for _, tr := range workloads.All(spec) {
		if tr.Name == benchmark {
			return tr, nil
		}
	}
	return nil, fmt.Errorf("unknown benchmark %q (LR, LSTM, ResNet-20, PackedBootstrapping)", benchmark)
}

package main

import (
	"flag"
	"fmt"
	"os"

	"poseidon/internal/arch"
	"poseidon/internal/baseline"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
	"poseidon/internal/report"
	"poseidon/internal/trace"
	"poseidon/internal/workloads"
)

func stdModel() (*arch.Model, arch.EnergyModel) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		fmt.Fprintf(os.Stderr, "poseidon: building the U280 paper model: %v\n", err)
		os.Exit(1)
	}
	return m, arch.DefaultEnergy()
}

func init() {
	register("table1", "operator reuse matrix: which cores each basic op exercises", runTable1)
	register("table2", "NTT-fusion operation counts per radix-2^k block", runTable2)
	register("table3", "NTT data-access strides per iteration (N=4096, k=3)", runTable3)
	register("table4", "basic-operation throughput: CPU / GPU / HEAX / Poseidon", runTable4)
	register("table5", "benchmark descriptions", runTable5)
	register("table6", "full-system benchmark times vs ASIC/GPU prototypes", runTable6)
	register("table7", "HBM bandwidth utilization per operation per benchmark", runTable7)
	register("table8", "automorphism core resources: naive vs HFAuto", runTable8)
	register("table9", "Poseidon-Auto vs Poseidon-HFAuto benchmark ablation", runTable9)
	register("table10", "energy-delay product per benchmark", runTable10)
	register("table11", "FPGA resources per operator core family", runTable11)
	register("table12", "resource comparison with other FPGA prototypes", runTable12)
	register("fig7", "operator-core time shares inside each basic operation", runFig7)
	register("fig8", "basic-operation time shares per benchmark", runFig8)
	register("fig9", "key-operator time shares per benchmark", runFig9)
	register("fig10", "fusion-degree sweep: resources and NTT time vs k", runFig10)
	register("fig11", "lane-count sweep: time and EDP (ResNet-20)", runFig11)
	register("fig12", "energy breakdown per benchmark", runFig12)
}

func runTable1(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _ := stdModel()
	l := m.Params.Limbs
	ops := []struct {
		name string
		prof arch.Profile
	}{
		{"HAdd", m.HAdd(l)},
		{"PMult", m.PMult(l)},
		{"CMult", m.CMult(l)},
		{"Rescale", m.Rescale(l)},
		{"Keyswitch", m.Keyswitch(l)},
		{"Rotation", m.Rotation(l)},
		{"ModUp", m.ModUp(l)},
		{"ModDown", m.ModDown(l)},
	}
	t := report.New("Table I — operator reuse: cores each basic operation exercises",
		"operation", "MA", "MM", "NTT/INTT", "Automorphism", "SBT")
	mark := func(c float64) string {
		if c > 0 {
			return "X"
		}
		return ""
	}
	for _, op := range ops {
		// SBT serves every modular reduction: checked whenever MM or NTT
		// cycles exist (the shared-core design of Fig 2).
		sbt := ""
		if op.prof.Cycles[arch.MM] > 0 || op.prof.Cycles[arch.NTT] > 0 {
			sbt = "X"
		}
		t.AddRow(op.name,
			mark(op.prof.Cycles[arch.MA]),
			mark(op.prof.Cycles[arch.MM]),
			mark(op.prof.Cycles[arch.NTT]),
			mark(op.prof.Cycles[arch.Auto]),
			sbt)
	}
	t.AddNote("derived from the cost model's per-operator cycle attribution")
	t.Write(os.Stdout)
	return nil
}

func runTable2(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.New("Table II — conventional NTT vs NTT-fusion, per radix-2^k block",
		"k", "W unfused", "W fused", "Mult/Add unfused", "Mult/Add fused",
		"Red. unfused", "Red. fused", "Red. executed (lazy r2)", "Red. executed (fused plan)")
	for k := 2; k <= 6; k++ {
		u := ntt.UnfusedBlockCosts(k)
		f := ntt.FusedBlockCosts(k)
		// Measure the lazy radix-2 schedule (ForwardWithStats: the fused plan
		// at k = 1, one Harvey stage a pass) on a standalone 2^k-point block:
		// its executed reductions (Normalizations) come from the real kernel
		// run, not the analytic formula. The deferred slots account
		// for the remainder of the TAM-convention budget.
		n := 1 << uint(k)
		tab, err := nttTableForBlock(n)
		if err != nil {
			return err
		}
		a := make([]uint64, n)
		for i := range a {
			a[i] = uint64(i + 1)
		}
		var s ntt.Stats
		tab.ForwardWithStats(a, &s)
		if s.Reductions != int64(u.Reductions) || s.Deferred+s.Normalizations != s.Reductions {
			return fmt.Errorf("table2: measured stats inconsistent at k=%d: %+v", k, s)
		}
		// The fused plan at degree k turns the whole 2^k-point block into a
		// single register-resident pass: its measured reduction count is the
		// software realization of the fused TAM column — one executed
		// normalization per output, everything else folded into the pass.
		plan, err := ntt.NewFusedPlan(tab, k)
		if err != nil {
			return err
		}
		for i := range a {
			a[i] = uint64(i + 1)
		}
		var fs ntt.Stats
		plan.ForwardCounted(a, &fs)
		if fs.FusedPasses != 1 || fs.Deferred+fs.Normalizations != fs.Reductions {
			return fmt.Errorf("table2: fused stats inconsistent at k=%d: %+v", k, fs)
		}
		t.AddRow(k, u.Twiddles, f.Twiddles,
			fmt.Sprintf("%d / %d", u.Mults, u.Adds),
			fmt.Sprintf("%d / %d", f.Mults, f.Adds),
			u.Reductions, f.Reductions,
			fmt.Sprintf("%d (+%d deferred)", s.Normalizations, s.Deferred),
			fmt.Sprintf("%d in %d pass", fs.Normalizations, fs.FusedPasses))
	}
	t.AddNote("fused M/A follows 2^k·(2^k−1); the paper prints 4160 at k=6 where the formula gives 4032 (see EXPERIMENTS.md)")
	t.AddNote("lazy r2 column is measured from the software Harvey kernel: one executed band-edge reduction per output, the remaining TAM slots deferred")
	t.AddNote("fused plan column is measured from FusedPlan.ForwardCounted: the register-blocked pass executes exactly the paper's fused reduction budget")
	t.Write(os.Stdout)
	return nil
}

// nttTableForBlock builds a table for a standalone n-point block over a
// small NTT-friendly prime.
func nttTableForBlock(n int) (*ntt.Table, error) {
	qs, err := numeric.GenerateNTTPrimes(30, 10, 1)
	if err != nil {
		return nil, err
	}
	return ntt.NewTable(n, qs[0])
}

func runTable3(fs *flag.FlagSet, args []string) error {
	logN := fs.Int("logn", 12, "ring degree log2")
	k := fs.Int("k", 3, "fusion degree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("Table III — BRAM access stride per iteration (N=2^%d)", *logN),
		"iteration", "conventional stride", fmt.Sprintf("fused stride (k=%d)", *k))
	conv := ntt.Iterations(*logN, 1)
	fused := ntt.Iterations(*logN, *k)
	for it := 1; it <= fused; it++ {
		t.AddRow(it, ntt.AccessStride(it, 1), ntt.AccessStride(it, *k))
	}
	t.AddNote("conventional NTT needs %d iterations; fusion reduces them to %d", conv, fused)
	t.Write(os.Stdout)
	return nil
}

func runTable4(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _ := stdModel()
	l := m.Params.Limbs
	model := map[string]arch.Profile{
		"PMult":     m.PMult(l),
		"CMult":     m.CMult(l),
		"NTT":       m.NTTOp(l),
		"Keyswitch": m.Keyswitch(l),
		"Rotation":  m.Rotation(l),
		"Rescale":   m.Rescale(l),
	}
	reported := map[string]map[string]float64{}
	for _, row := range baseline.TableIVReported() {
		if reported[row.Op] == nil {
			reported[row.Op] = map[string]float64{}
		}
		reported[row.Op][row.Platform] = row.OpsPerS
	}
	t := report.New("Table IV — basic-operation throughput (op/s)",
		"operation", "CPU (paper)", "GPU (paper)", "HEAX (paper)",
		"Poseidon (paper)", "Poseidon (this model)", "speedup vs CPU (model)")
	for _, op := range []string{"PMult", "CMult", "NTT", "Keyswitch", "Rotation", "Rescale"} {
		get := func(p string) string {
			if v, ok := reported[op][p]; ok {
				return fmt.Sprintf("%.2f", v)
			}
			return "/"
		}
		ours := 1 / m.Latency(model[op])
		cpu := reported[op]["CPU (Xeon 6234)"]
		t.AddRow(op, get("CPU (Xeon 6234)"), get("over100x (GPU)"), get("HEAX (FPGA)"),
			get("Poseidon (FPGA)"), ours, fmt.Sprintf("%.0f x", ours/cpu))
	}
	t.AddNote("model column: N=2^16, L=44, 512 lanes, k=3, 460 GB/s HBM at 85%% efficiency")
	t.Write(os.Stdout)
	return nil
}

func runTable5(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.New("Table V — benchmarks", "benchmark", "description", "basic ops in trace")
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		t.AddRow(tr.Name, tr.Description, fmt.Sprintf("%.0f", tr.TotalOps()))
	}
	t.Write(os.Stdout)
	return nil
}

func runTable6(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	t := report.New("Table VI — full-system benchmark time (ms)",
		"benchmark", "Poseidon (paper)", "Poseidon (this model)", "best ASIC (paper)", "GPU (paper)")
	paper := map[string]float64{}
	bestASIC := map[string]float64{}
	gpu := map[string]float64{}
	for _, row := range baseline.TableVIReported() {
		switch {
		case row.Platform == "Poseidon (FPGA)":
			paper[row.Benchmark] = row.Millis
		case row.Platform == "over100x (GPU)":
			gpu[row.Benchmark] = row.Millis
		default:
			if cur, ok := bestASIC[row.Benchmark]; !ok || row.Millis < cur {
				bestASIC[row.Benchmark] = row.Millis
			}
		}
	}
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		rep := arch.Simulate(m, em, tr)
		g := "/"
		if v, ok := gpu[tr.Name]; ok {
			g = fmt.Sprintf("%.0f", v)
		}
		t.AddRow(tr.Name, paper[tr.Name], rep.TotalTime*1e3, bestASIC[tr.Name], g)
	}
	t.AddNote("ASIC columns are the cited papers' reported results (simulation-phase prototypes)")
	t.Write(os.Stdout)
	return nil
}

func runTable7(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	kinds := []trace.Kind{trace.HAdd, trace.PMult, trace.CMult, trace.Keyswitch, trace.Rotation, trace.Rescale}
	headers := []string{"operation"}
	benches := workloads.All(workloads.PaperSpec())
	for _, tr := range benches {
		headers = append(headers, tr.Name+" (%)")
	}
	t := report.New("Table VII — lowest per-op and average HBM bandwidth utilization", headers...)
	reps := make([]arch.Report, len(benches))
	for i, tr := range benches {
		reps[i] = arch.Simulate(m, em, tr)
	}
	for _, k := range kinds {
		row := []interface{}{k.String()}
		for i := range benches {
			if st, ok := reps[i].ByKind[k]; ok && st.MinUtil <= 1 {
				row = append(row, st.MinUtil*100)
			} else {
				row = append(row, "/")
			}
		}
		t.AddRow(row...)
	}
	avg := []interface{}{"Average"}
	for i := range benches {
		avg = append(avg, reps[i].AvgBandwidthUtil*100)
	}
	t.AddRow(avg...)
	t.Write(os.Stdout)
	return nil
}

func runTable8(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := report.New("Table VIII — automorphism core comparison (one engine, C=512, N=2^16)",
		"design", "FF", "DSP", "LUT", "BRAM", "latency (cycles)")
	for _, kind := range []arch.AutoKind{arch.NaiveAutoCore, arch.HFAutoCore} {
		cfg := arch.U280()
		cfg.Auto = kind
		cr := arch.NewCoreResources(cfg, 16)
		r := cr.AutoCores()
		t.AddRow(kind.String(), r.FF, r.DSP, r.LUT, r.BRAM, cr.AutoLatencyCycles(1<<16))
	}
	t.Write(os.Stdout)
	return nil
}

func runTable9(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfgHF := arch.U280()
	cfgNV := arch.U280()
	cfgNV.Auto = arch.NaiveAutoCore
	mHF, _ := arch.NewModel(cfgHF, arch.PaperParams())
	mNV, _ := arch.NewModel(cfgNV, arch.PaperParams())
	em := arch.DefaultEnergy()
	t := report.New("Table IX — HFAuto ablation: benchmark time (ms)",
		"benchmark", "Poseidon-Auto", "Poseidon-HFAuto", "slowdown")
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		a := arch.Simulate(mNV, em, tr).TotalTime * 1e3
		h := arch.Simulate(mHF, em, tr).TotalTime * 1e3
		t.AddRow(tr.Name, a, h, fmt.Sprintf("%.1f x", a/h))
	}
	t.Write(os.Stdout)
	return nil
}

func runTable10(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	t := report.New("Table X — energy-delay product per benchmark",
		"benchmark", "time (ms)", "energy (J)", "EDP (J·s)")
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		rep := arch.Simulate(m, em, tr)
		t.AddRow(tr.Name, rep.TotalTime*1e3, rep.TotalEnergy, rep.EDP)
	}
	t.AddNote("ASIC comparators' absolute EDP depends on their technology node; see EXPERIMENTS.md")
	t.Write(os.Stdout)
	return nil
}

func runTable11(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	cr := arch.NewCoreResources(arch.U280(), 16)
	t := report.New("Table XI — FPGA resources per operator core family (512 lanes, k=3)",
		"core family", "LUT", "FF", "DSP", "BRAM")
	rows := []struct {
		name string
		r    arch.Resources
	}{
		{"MA cores", cr.MACores()},
		{"MM cores", cr.MMCores()},
		{"SBT (shared Barrett)", cr.SBTCores()},
		{"NTT cores", cr.NTTCores()},
		{"Automorphism (HFAuto)", cr.AutoCores()},
		{"Total (with memory glue)", cr.Total()},
	}
	for _, row := range rows {
		t.AddRow(row.name, row.r.LUT, row.r.FF, row.r.DSP, row.r.BRAM)
	}
	util := cr.Total().Utilization()
	t.AddNote("U280 utilization: LUT %.0f%%, FF %.0f%%, DSP %.0f%%, BRAM %.0f%%",
		util["LUT"]*100, util["FF"]*100, util["DSP"]*100, util["BRAM"]*100)
	t.Write(os.Stdout)
	return nil
}

func runTable12(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	cr := arch.NewCoreResources(arch.U280(), 16)
	total := cr.Total()
	t := report.New("Table XII — resource comparison with other FPGA prototypes",
		"prototype", "LUT", "FF", "DSP", "BRAM", "source")
	t.AddRow("Kim et al. [25][26]", 742000, 1181000, 8236, 2120, "reported")
	t.AddRow("HEAX [32]", 1103000, 1601000, 8574, 2371, "reported")
	t.AddRow("Poseidon (this model)", total.LUT, total.FF, total.DSP, total.BRAM, "modeled")
	t.AddNote("comparator rows are the cited papers' published synthesis results")
	t.Write(os.Stdout)
	return nil
}

func runFig7(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, _ := stdModel()
	l := m.Params.Limbs
	ops := []struct {
		name string
		prof arch.Profile
	}{
		{"HAdd", m.HAdd(l)},
		{"PMult", m.PMult(l)},
		{"CMult", m.CMult(l)},
		{"Rescale", m.Rescale(l)},
		{"Keyswitch", m.Keyswitch(l)},
		{"Rotation", m.Rotation(l)},
	}
	t := report.New("Fig 7 — operator-core time share inside each basic operation (%)",
		"operation", "MA", "MM", "NTT", "Automorphism", "data movement")
	for _, op := range ops {
		s := m.Shares(op.prof)
		t.AddRow(op.name, s[arch.MA]*100, s[arch.MM]*100, s[arch.NTT]*100,
			s[arch.Auto]*100, s[arch.Mem]*100)
	}
	t.Write(os.Stdout)
	return nil
}

func runFig8(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	kinds := []trace.Kind{trace.HAdd, trace.HAddPlain, trace.PMult, trace.CMult,
		trace.Rotation, trace.Keyswitch, trace.Rescale}
	headers := []string{"benchmark", "total (ms)"}
	for _, k := range kinds {
		headers = append(headers, k.String()+" (%)")
	}
	t := report.New("Fig 8 — basic-operation time share per benchmark", headers...)
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		rep := arch.Simulate(m, em, tr)
		row := []interface{}{tr.Name, rep.TotalTime * 1e3}
		for _, k := range kinds {
			share := 0.0
			if st, ok := rep.ByKind[k]; ok {
				share = st.Time / rep.TotalTime * 100
			}
			row = append(row, share)
		}
		t.AddRow(row...)
	}
	t.Write(os.Stdout)
	return nil
}

func runFig9(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	t := report.New("Fig 9 — key-operator time share per benchmark (%)",
		"benchmark", "MA", "MM", "NTT", "Automorphism", "data movement")
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		rep := arch.Simulate(m, em, tr)
		total := rep.TotalTime
		t.AddRow(tr.Name,
			rep.ByOperator[arch.MA]/total*100,
			rep.ByOperator[arch.MM]/total*100,
			rep.ByOperator[arch.NTT]/total*100,
			rep.ByOperator[arch.Auto]/total*100,
			rep.ByOperator[arch.Mem]/total*100)
	}
	t.Write(os.Stdout)
	return nil
}

func runFig10(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	cr := arch.NewCoreResources(arch.U280(), 16)
	t := report.New("Fig 10 — fusion-degree sweep (NTT core array, 512 lanes, N=2^16)",
		"k", "LUT", "FF (Regs)", "DSP", "BRAM", "NTT time (us)")
	for k := 1; k <= 6; k++ {
		r := cr.NTTCoresAtK(k)
		t.AddRow(k, r.LUT, r.FF, r.DSP, r.BRAM, cr.NTTTimeAtK(k))
	}
	t.AddNote("the inflection at k=3 balances pass count against fused-kernel density")
	t.Write(os.Stdout)
	return nil
}

func runFig11(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	em := arch.DefaultEnergy()
	tr := workloads.ResNet20(workloads.PaperSpec())
	t := report.New("Fig 11 — lane sensitivity (ResNet-20)",
		"lanes", "time (ms)", "energy (J)", "EDP (J·s)", "speedup vs 64")
	var base float64
	for _, lanes := range []int{64, 128, 256, 512} {
		cfg := arch.U280()
		cfg.Lanes = lanes
		m, err := arch.NewModel(cfg, arch.PaperParams())
		if err != nil {
			return err
		}
		rep := arch.Simulate(m, em, tr)
		if base == 0 {
			base = rep.TotalTime
		}
		t.AddRow(lanes, rep.TotalTime*1e3, rep.TotalEnergy, rep.EDP,
			fmt.Sprintf("%.2f x", base/rep.TotalTime))
	}
	t.AddNote("growth slows toward 512 lanes as streaming ops hit the bandwidth wall")
	t.Write(os.Stdout)
	return nil
}

func runFig12(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, em := stdModel()
	t := report.New("Fig 12 — energy breakdown per benchmark (%)",
		"benchmark", "total (J)", "HBM", "MM", "NTT", "MA", "Automorphism", "static")
	for _, tr := range workloads.All(workloads.PaperSpec()) {
		b := arch.SimulateEnergyBreakdown(m, em, tr)
		total := b.Total()
		t.AddRow(tr.Name, total, b.HBM/total*100, b.MM/total*100, b.NTT/total*100,
			b.MA/total*100, b.Auto/total*100, b.Static/total*100)
	}
	t.Write(os.Stdout)
	return nil
}

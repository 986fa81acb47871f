package workloads

import (
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/trace"
)

func TestAllBenchmarksBuild(t *testing.T) {
	for _, tr := range All(PaperSpec()) {
		if tr.Name == "" || tr.Description == "" {
			t.Errorf("trace missing metadata: %+v", tr.Name)
		}
		if len(tr.Ops) == 0 {
			t.Errorf("%s: empty trace", tr.Name)
		}
		for _, op := range tr.Ops {
			if op.Limbs < 1 || op.Limbs > PaperSpec().MaxLimbs {
				t.Errorf("%s: op %v at invalid limbs %d", tr.Name, op.Kind, op.Limbs)
			}
			if op.Count <= 0 {
				t.Errorf("%s: non-positive count", tr.Name)
			}
		}
	}
}

// Keyswitch-bearing operations (CMult, Rotation) must dominate execution
// time in every benchmark — the Fig 8 observation.
func TestKeyswitchDominates(t *testing.T) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	em := arch.DefaultEnergy()
	for _, tr := range All(PaperSpec()) {
		rep := arch.Simulate(m, em, tr)
		ksTime := 0.0
		for _, k := range []trace.Kind{trace.CMult, trace.Rotation, trace.Keyswitch} {
			if st := rep.ByKind[k]; st != nil {
				ksTime += st.Time
			}
		}
		if frac := ksTime / rep.TotalTime; frac < 0.4 {
			t.Errorf("%s: keyswitch-bearing ops only %.0f%% of time, expected dominant",
				tr.Name, frac*100)
		}
	}
}

// Full-system times must land in the paper's ballpark ordering:
// LR fastest, then PackedBootstrapping, then LSTM and ResNet-20 (Table VI).
func TestBenchmarkOrdering(t *testing.T) {
	m, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	em := arch.DefaultEnergy()
	times := map[string]float64{}
	for _, tr := range All(PaperSpec()) {
		times[tr.Name] = arch.Simulate(m, em, tr).TotalTime
	}
	if !(times["LR"] < times["PackedBootstrapping"]) {
		t.Errorf("LR (%.3g) should be faster than PackedBootstrapping (%.3g)",
			times["LR"], times["PackedBootstrapping"])
	}
	if !(times["PackedBootstrapping"] < times["LSTM"]) {
		t.Errorf("PackedBootstrapping (%.3g) should be faster than LSTM (%.3g)",
			times["PackedBootstrapping"], times["LSTM"])
	}
	if !(times["PackedBootstrapping"] < times["ResNet-20"]) {
		t.Errorf("PackedBootstrapping (%.3g) should be faster than ResNet-20 (%.3g)",
			times["PackedBootstrapping"], times["ResNet-20"])
	}
	if !(times["LSTM"] < times["ResNet-20"]) {
		t.Errorf("LSTM (%.3g) should be faster than ResNet-20 (%.3g) as in Table VI",
			times["LSTM"], times["ResNet-20"])
	}
}

// The HFAuto→naive ablation must slow every benchmark substantially
// (Table IX: up to an order of magnitude).
func TestAutoAblationAcrossBenchmarks(t *testing.T) {
	cfg := arch.U280()
	hf, _ := arch.NewModel(cfg, arch.PaperParams())
	cfg.Auto = arch.NaiveAutoCore
	nv, _ := arch.NewModel(cfg, arch.PaperParams())
	em := arch.DefaultEnergy()
	for _, tr := range All(PaperSpec()) {
		tHF := arch.Simulate(hf, em, tr).TotalTime
		tNV := arch.Simulate(nv, em, tr).TotalTime
		if tNV <= tHF {
			t.Errorf("%s: naive automorphism not slower (%.3g vs %.3g)", tr.Name, tNV, tHF)
		}
		if ratio := tNV / tHF; ratio < 1.5 {
			t.Errorf("%s: ablation ratio %.2f too small", tr.Name, ratio)
		}
	}
}

// Phase tags must partition the bootstrap trace time, with EvalMod the
// dominant phase (as in the bootstrapping literature).
func TestBootstrapPhaseBreakdown(t *testing.T) {
	m, _ := arch.NewModel(arch.U280(), arch.PaperParams())
	em := arch.DefaultEnergy()
	rep := arch.Simulate(m, em, PackedBootstrapping(PaperSpec()))

	sum := 0.0
	for _, v := range rep.ByTag {
		sum += v
	}
	if d := (sum - rep.TotalTime) / rep.TotalTime; d > 1e-9 || d < -1e-9 {
		t.Errorf("phase times sum %.6g != total %.6g", sum, rep.TotalTime)
	}
	if rep.ByTag["EvalMod"] <= rep.ByTag["SlotToCoeff"] {
		t.Error("EvalMod should dominate SlotToCoeff")
	}
	for _, phase := range []string{"CoeffToSlot", "EvalMod", "SlotToCoeff"} {
		if rep.ByTag[phase] <= 0 {
			t.Errorf("phase %s missing from breakdown", phase)
		}
	}
}

func TestSimulateReportConsistency(t *testing.T) {
	m, _ := arch.NewModel(arch.U280(), arch.PaperParams())
	em := arch.DefaultEnergy()
	tr := PackedBootstrapping(PaperSpec())
	rep := arch.Simulate(m, em, tr)

	// Per-kind times must sum to the total.
	sum := 0.0
	for _, st := range rep.ByKind {
		sum += st.Time
	}
	if diff := (sum - rep.TotalTime) / rep.TotalTime; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("kind times sum %.6g != total %.6g", sum, rep.TotalTime)
	}
	// Sorted view matches content.
	ks := rep.KindsByTime()
	for i := 1; i < len(ks); i++ {
		if ks[i].Time > ks[i-1].Time {
			t.Error("KindsByTime not sorted")
		}
	}
	if rep.EDP <= 0 || rep.TotalEnergy <= 0 || rep.AvgBandwidthUtil <= 0 {
		t.Error("report totals must be positive")
	}
	if rep.AvgBandwidthUtil > 1 {
		t.Errorf("average bandwidth utilization %.2f > 1", rep.AvgBandwidthUtil)
	}

	// Energy breakdown matches total.
	b := arch.SimulateEnergyBreakdown(m, em, tr)
	if diff := (b.Total() - rep.TotalEnergy) / rep.TotalEnergy; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("energy breakdown %.6g != total %.6g", b.Total(), rep.TotalEnergy)
	}
}

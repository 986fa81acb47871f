package arch

import (
	"testing"

	"poseidon/internal/workloads"
)

func TestSmartSSDValidates(t *testing.T) {
	if err := SmartSSD().Validate(); err != nil {
		t.Fatalf("SmartSSD config invalid: %v", err)
	}
}

// The NDP variant must be slower but far more energy-proportional on
// memory-heavy work: its energy per benchmark should drop even though time
// rises.
func TestNDPTradeoff(t *testing.T) {
	hbm, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	ndp, err := NewModel(SmartSSD(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := workloads.PackedBootstrapping(workloads.PaperSpec())

	repHBM := Simulate(hbm, DefaultEnergy(), tr)
	repNDP := Simulate(ndp, NDPEnergy(), tr)

	if repNDP.TotalTime <= repHBM.TotalTime {
		t.Errorf("NDP should be slower: %.3g vs %.3g s", repNDP.TotalTime, repHBM.TotalTime)
	}
	// The NDP win is in data movement: bytes cost ~6× less to move, so the
	// memory component of the energy must fall sharply even though the
	// longer runtime accrues more static energy overall.
	bHBM := SimulateEnergyBreakdown(hbm, DefaultEnergy(), tr)
	bNDP := SimulateEnergyBreakdown(ndp, NDPEnergy(), tr)
	if bNDP.HBM >= bHBM.HBM/3 {
		t.Errorf("NDP data-movement energy %.3g J should be ≪ HBM's %.3g J", bNDP.HBM, bHBM.HBM)
	}
}

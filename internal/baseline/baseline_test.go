package baseline

import "testing"

func TestReportedTablesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, row := range TableIVReported() {
		if row.Platform == "" || row.Op == "" || row.OpsPerS <= 0 {
			t.Errorf("bad Table IV row: %+v", row)
		}
		key := row.Platform + "/" + row.Op
		if seen[key] {
			t.Errorf("duplicate Table IV row %s", key)
		}
		seen[key] = true
		if row.Source != Reported {
			t.Errorf("Table IV rows must be literature data: %+v", row)
		}
	}
	seen = map[string]bool{}
	for _, row := range TableVIReported() {
		if row.Platform == "" || row.Benchmark == "" || row.Millis <= 0 {
			t.Errorf("bad Table VI row: %+v", row)
		}
		key := row.Platform + "/" + row.Benchmark
		if seen[key] {
			t.Errorf("duplicate Table VI row %s", key)
		}
		seen[key] = true
	}
}

func TestPaperSpeedupsRecoverable(t *testing.T) {
	// The headline Table IV speedups (Poseidon over CPU) must be
	// recomputable from the stored rows: PMult 349×, CMult 718×,
	// Rescale 572×.
	rows := TableIVReported()
	get := func(platform, op string) float64 {
		for _, r := range rows {
			if r.Platform == platform && r.Op == op {
				return r.OpsPerS
			}
		}
		t.Fatalf("missing row %s/%s", platform, op)
		return 0
	}
	cases := map[string]float64{"PMult": 349, "CMult": 718, "Rescale": 572}
	for op, want := range cases {
		ratio := get("Poseidon (FPGA)", op) / get("CPU (Xeon 6234)", op)
		if ratio < want*0.95 || ratio > want*1.05 {
			t.Errorf("%s speedup %.0f×, paper reports %.0f×", op, ratio, want)
		}
	}
}

func TestCPUMeasurementSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU measurement setup is slow")
	}
	m, err := NewCPUMeasurement(10, 6, 40)
	if err != nil {
		t.Fatal(err)
	}
	rows := m.Measure(3)
	if len(rows) < 6 {
		t.Fatalf("only %d measurements", len(rows))
	}
	byOp := map[string]float64{}
	for _, r := range rows {
		if r.OpsPerS <= 0 {
			t.Errorf("%s: non-positive throughput", r.Op)
		}
		if r.Source != Measured {
			t.Errorf("%s: should be marked measured", r.Op)
		}
		byOp[r.Op] = r.OpsPerS
	}
	// Shape: HAdd must be the fastest op; CMult must be slower than PMult.
	if byOp["HAdd"] < byOp["CMult"] {
		t.Error("HAdd should outpace CMult on CPU")
	}
	if byOp["PMult"] < byOp["CMult"] {
		t.Error("PMult should outpace CMult on CPU")
	}
}

// The rows are labelled single-thread, so the evaluator must run on one
// worker whatever GOMAXPROCS is.
func TestCPUMeasurementSingleWorker(t *testing.T) {
	m, err := NewCPUMeasurement(10, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if w := m.ev.Workers(); w != 1 {
		t.Errorf("evaluator runs on %d workers, want 1", w)
	}
	if rows := m.Measure(1); len(rows) != 7 || rows[5].Op != "Keyswitch" || rows[5].OpsPerS <= 0 {
		t.Errorf("Measure rows %+v: want 7 with a timed Keyswitch sixth", rows)
	}
}

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

package arch

import (
	"encoding/json"
	"testing"

	"poseidon/internal/trace"
)

// TestReportCalibJSONRoundTrip proves the calibration block survives the
// Report's JSON encoding unchanged.
func TestReportCalibJSONRoundTrip(t *testing.T) {
	rep := Report{
		Name:      "calib-roundtrip",
		TotalTime: 1.5,
		Calib: &trace.CalibStats{
			Workload: "chain",
			PerKind: []trace.KindCalib{
				{Kind: trace.CMult, Name: "CMult", Count: 12, MeasuredSec: 0.024, ModeledSec: 0.006, Ratio: 4.0},
				{Kind: trace.Rescale, Name: "Rescale", Count: 12, MeasuredSec: 0.003, ModeledSec: 0.003, Ratio: 1.0},
			},
			GeomeanRatio: 2.0,
			MinRatio:     1.0,
			MaxRatio:     4.0,
		},
	}

	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Calib == nil {
		t.Fatal("Calib lost in round trip")
	}
	if back.Calib.Workload != "chain" {
		t.Fatalf("workload = %q", back.Calib.Workload)
	}
	if len(back.Calib.PerKind) != 2 {
		t.Fatalf("PerKind = %+v", back.Calib.PerKind)
	}
	for i, kc := range back.Calib.PerKind {
		orig := rep.Calib.PerKind[i]
		if kc != orig {
			t.Fatalf("PerKind[%d] = %+v, want %+v", i, kc, orig)
		}
	}
	if back.Calib.GeomeanRatio != 2.0 || back.Calib.MinRatio != 1.0 || back.Calib.MaxRatio != 4.0 {
		t.Fatalf("drift summary = %+v", back.Calib)
	}

	// A report without calibration must omit the key entirely.
	blob, err = json.Marshal(Report{Name: "no-calib"})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["Calib"]; ok {
		t.Fatal("nil Calib should be omitted from JSON")
	}
}

package arch

import (
	"encoding/json"
	"testing"

	"poseidon/internal/trace"
)

// TestReportJSONRoundTrip proves a simulated report survives its JSON
// encoding unchanged.
func TestReportJSONRoundTrip(t *testing.T) {
	m, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	tr := &trace.Trace{Name: "roundtrip", Workers: 2}
	tr.AddTagged(trace.CMult, 6, 3, "mul")
	tr.Add(trace.Rescale, 6, 3)
	rep := Simulate(m, DefaultEnergy(), tr)

	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != rep.Name || back.Workers != 2 || back.TotalTime != rep.TotalTime || back.EDP != rep.EDP {
		t.Fatalf("report = %+v, want %+v", back, rep)
	}
	for k, st := range rep.ByKind {
		if got := back.ByKind[k]; got == nil || *got != *st {
			t.Fatalf("ByKind[%v] = %+v, want %+v", k, got, st)
		}
	}
	if back.ByTag["mul"] != rep.ByTag["mul"] || len(back.ByOperator) != len(rep.ByOperator) {
		t.Fatalf("breakdowns = %v / %v, want %v / %v", back.ByTag, back.ByOperator, rep.ByTag, rep.ByOperator)
	}
}

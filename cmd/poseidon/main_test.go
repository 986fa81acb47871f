package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"poseidon/internal/tracing"
)

// dirState fingerprints the package directory (the tests' working
// directory): name, size and modification time of every entry.
func dirState(t *testing.T) string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %d %d\n", e.Name(), info.Size(), info.ModTime().UnixNano())
	}
	return b.String()
}

// Every registered experiment (except the slow CPU measurement) must run
// without error — the harness stays wired as the models evolve — and must
// leave the source tree exactly as it found it.
func TestAllExperimentsRun(t *testing.T) {
	// Silence the experiment output during the test.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()

	before := dirState(t)
	for _, e := range experiments {
		if e.name == "cpu" || e.name == "tracereport" {
			continue // slow / needs an input dump; TestCPUExperimentSmall and TestTraceReportConverts run them
		}
		e := e
		t.Run(e.name, func(t *testing.T) {
			fs := flag.NewFlagSet(e.name, flag.ContinueOnError)
			if err := e.run(fs, nil); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		})
	}
	if after := dirState(t); after != before {
		t.Errorf("experiments modified the source tree:\nbefore:\n%safter:\n%s", before, after)
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5", "table6", "table7",
		"table8", "table9", "table10", "table11", "table12",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "cpu",
	}
	have := map[string]bool{}
	for _, e := range experiments {
		if e.desc == "" {
			t.Errorf("%s: missing description", e.name)
		}
		have[e.name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("experiment %s not registered", name)
		}
	}
}

func TestCPUExperimentSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("CPU measurement is slow")
	}
	old := os.Stdout
	devnull, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	fs := flag.NewFlagSet("cpu", flag.ContinueOnError)
	for _, e := range experiments {
		if e.name == "cpu" {
			if err := e.run(fs, []string{"-logn", "9", "-limbs", "4", "-reps", "2"}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// tracereport must round-trip a flight-recorder dump into Chrome
// trace_event JSON that a viewer can load.
func TestTraceReportConverts(t *testing.T) {
	rt := tracing.NewRequest(tracing.NewContext(), "unit")
	sp := rt.StartSpan(0, "work")
	rt.EndSpan(sp)
	f := rt.Finish(200, nil)

	dump, err := json.Marshal(map[string]any{"traces": []*tracing.Finished{f}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "dump.json")
	out := filepath.Join(dir, "chrome.json")
	if err := os.WriteFile(in, dump, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	if err := runTraceReport(fs, []string{"-in", in, "-o", out}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &chrome); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	var slices int
	for _, ev := range chrome.TraceEvents {
		if ev["ph"] == "X" {
			slices++
		}
	}
	if slices != 2 {
		t.Fatalf("got %d complete events, want root+work: %v", slices, chrome.TraceEvents)
	}
}

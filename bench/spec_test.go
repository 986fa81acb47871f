package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// BENCHMARK.json at the repository root is what the driver reads; the
// program prints from spec.go. The committed file must be exactly what the
// program generates, so a name in one is a name in the other.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bench manifest > BENCHMARK.json`")
	}

	// And both directions by name, so a failure says which name.
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	inFile := map[string]bool{}
	for _, e := range m.EndToEnd {
		inFile[e.Name] = true
		if _, ok := findSpec(endToEnd, e.Name); !ok {
			t.Errorf("BENCHMARK.json end_to_end %q is not printed by the program", e.Name)
		}
	}
	for _, e := range m.PerLayer {
		inFile[e.Name] = true
		if _, ok := findSpec(perLayer, e.Name); !ok {
			t.Errorf("BENCHMARK.json per_layer %q is not printed by the program", e.Name)
		}
	}
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !inFile[s.Name] {
			t.Errorf("the program prints %q, BENCHMARK.json does not name it", s.Name)
		}
	}
	for _, w := range m.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	if len(m.Workloads) != len(workloadDefs) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(m.Workloads), len(workloadDefs))
	}
}

// The limits the driver enforces before a single run.
func TestManifestStaysInsideTheContract(t *testing.T) {
	m := buildManifest()
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range m.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, e := range m.EndToEnd {
		name(e.Name)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("%s: bound %v", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must contain setup_s in s, lower is better")
	}
	for _, e := range append(append([]manifestMetric{}, m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(e.Unit) {
			t.Errorf("%s: unit %q is outside the contract", e.Name, e.Unit)
		}
		if e.Better != "lower" && e.Better != "higher" {
			t.Errorf("%s: better %q", e.Name, e.Better)
		}
	}
	for _, e := range m.PerLayer {
		name(e.Name)
		if e.Bound != nil {
			t.Errorf("per-layer %s carries a bound", e.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	// 4 + 22 runs per workload inside 3420 s leaves about half a minute a
	// run, set-up and warm-up included.
	if runs := 4 + 22*len(m.Workloads); float64(runs)*(float64(m.RunSeconds)+10) > 3420 {
		t.Errorf("%d runs of %d s measured (+10 s set-up and warm-up) overrun the driver's 3420 s", runs, m.RunSeconds)
	}
	var blob bytes.Buffer
	if err := writeManifest(&blob); err != nil {
		t.Fatal(err)
	}
	if blob.Len() > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", blob.Len())
	}
}

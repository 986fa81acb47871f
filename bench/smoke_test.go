package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

// The whole program on tiny rings with 0.1 s segments: every workload, both
// passes, the result file, compare and table. It checks the harness, not
// the numbers, and writes only under t.TempDir().
func TestSmokeFullRun(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "smoke.json")
	var log bytes.Buffer
	if err := run([]string{"-smoke", "-seconds", "0.4", "-results", dir, "-o", out}, &log); err != nil {
		t.Fatalf("%v\n%s", err, log.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Host.GOMAXPROCS > res.Host.NProc || res.Host.GOMAXPROCS > maxProcs {
		t.Errorf("host block: GOMAXPROCS %d on %d CPUs", res.Host.GOMAXPROCS, res.Host.NProc)
	}
	if len(res.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in the result, want %d", len(res.Workloads), len(workloadDefs))
	}
	measured := map[string]bool{}
	for _, w := range res.Workloads {
		for _, pass := range []*passResult{w.EndToEnd, w.PerLayer} {
			if !pass.Correct || pass.Failed != 0 || pass.Validated == 0 {
				t.Errorf("%s: correct %v, failed %d, validated %d", w.Name, pass.Correct, pass.Failed, pass.Validated)
			}
		}
		for _, s := range endToEnd {
			if m, ok := w.EndToEnd.Metrics[s.Name]; !ok || m.Value <= 0 || m.Unit != s.Unit {
				t.Errorf("%s: end-to-end %s = %+v", w.Name, s.Name, m)
			}
		}
		for name := range w.EndToEnd.Metrics {
			if _, ok := findSpec(endToEnd, name); !ok {
				t.Errorf("%s printed end-to-end %q, which BENCHMARK.json does not name", w.Name, name)
			}
		}
		for name := range w.PerLayer.Metrics {
			measured[name] = true
		}
		if len(w.PerLayer.Ledgers) == 0 || w.PerLayer.Ledgers[0].Count == 0 {
			t.Errorf("%s: no ledger", w.Name)
		} else if lg := w.PerLayer.Ledgers[0]; lg.SelfPct > 10 {
			t.Errorf("%s: ledger leaves %.1f%% of the unit op unnamed", w.Name, lg.SelfPct)
		}
	}
	for _, s := range perLayer {
		if !measured[s.Name] {
			t.Errorf("per-layer metric %s was measured by no workload's traced pass", s.Name)
		}
	}

	var cmp bytes.Buffer
	if worse, _ := compareResults(res, res, &cmp); worse != 0 {
		t.Errorf("a result compared with itself is worse in %d rows:\n%s", worse, cmp.String())
	}
	var table bytes.Buffer
	writeTable(res, &table)
	for _, w := range workloadDefs {
		if !strings.Contains(table.String(), "`"+w.Name+"`") {
			t.Errorf("table lacks %s", w.Name)
		}
	}
}

// The driver's view: one workload, one pass, the result object last.
func TestSmokeDriverResultLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		specs []metricSpec
	}{{"0", endToEnd}, {"1", perLayer}} {
		var log bytes.Buffer
		args := []string{"--workload", "serve_chain", "--seed", "3", "--seconds", "0.4", "--trace", c.trace, "-smoke", "-results", t.TempDir()}
		if err := run(args, &log); err != nil {
			t.Fatalf("trace %s: %v\n%s", c.trace, err, log.String())
		}
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		var raw map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
			t.Fatalf("trace %s: last line is not a JSON object: %v", c.trace, err)
		}
		if len(raw) != 4 {
			t.Errorf("trace %s: result object has %d keys, want correct, attempted, failed, metrics", c.trace, len(raw))
		}
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatal(err)
		}
		if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
			t.Errorf("trace %s: %+v", c.trace, line)
		}
		if len(line.Metrics) != len(c.specs) {
			t.Errorf("trace %s: %d metrics, want %d", c.trace, len(line.Metrics), len(c.specs))
		}
		for _, s := range c.specs {
			if m, ok := line.Metrics[s.Name]; !ok || m.Unit != s.Unit {
				t.Errorf("trace %s: metric %s = %+v", c.trace, s.Name, m)
			}
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	var log bytes.Buffer
	if err := run([]string{"--workload", "nope", "-smoke"}, &log); err == nil {
		t.Error("an unknown workload ran")
	}
}

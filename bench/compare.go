package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*fullResult, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r fullResult
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

func (r *fullResult) workload(name string) *workloadResult {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

// Verdicts of one workload × metric row.
const (
	verdictSame       = "same"
	verdictWorse      = "worse"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved"
)

// worseBy is how much worse b is than a as a share of a, signed so that
// positive is worse whichever direction the metric prefers.
func worseBy(spec metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// spread is the interquartile range of the values as a share of their
// median; a single value has none.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return (q3 - q1) / m
}

// allWorse reports whether every value of b is worse than every value of a.
func allWorse(spec metricSpec, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if worseBy(spec, x, y) <= 0 {
				return false
			}
		}
	}
	return true
}

// verdict judges b against a. Where either side's own segments spread wider
// than the bound the difference cannot be resolved, unless every segment of
// one side beats every segment of the other.
func verdict(spec metricSpec, a, b metricValue) string {
	w := worseBy(spec, a.Value, b.Value)
	if s := max(spread(a.Segments), spread(b.Segments)); s > spec.Bound {
		switch {
		case w > spec.Bound && allWorse(spec, a.Segments, b.Segments):
			return verdictWorse
		case allWorse(spec, b.Segments, a.Segments):
			return verdictBetter
		}
		return verdictUnresolved
	}
	switch {
	case w > spec.Bound:
		return verdictWorse
	case w < -spec.Bound:
		return verdictBetter
	}
	return verdictSame
}

func failRatio(p *passResult) float64 {
	if p == nil || p.Attempted == 0 {
		return 1
	}
	return float64(p.Failed) / float64(p.Attempted)
}

func fmtQuartiles(vs []float64) string {
	if len(vs) < 2 {
		return "-"
	}
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g..%.4g", q1, q3)
}

// compareResults prints one row per workload × end-to-end metric and
// returns how many rows are worse (a rise in the failure ratio counts) and
// how many are unresolved.
func compareResults(a, b *fullResult, w io.Writer) (worse, unresolved int) {
	fmt.Fprintf(w, "%-15s %-15s %12s %12s %8s %6s  %-22s %-22s %s\n",
		"workload", "metric", "A", "B", "B vs A", "bound", "A quartiles", "B quartiles", "verdict")
	for _, def := range workloadDefs {
		wa, wb := a.workload(def.Name), b.workload(def.Name)
		if wa == nil || wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			fmt.Fprintf(w, "%-15s missing from one side\n", def.Name)
			worse++
			continue
		}
		for _, spec := range endToEnd {
			ma, mb := wa.EndToEnd.Metrics[spec.Name], wb.EndToEnd.Metrics[spec.Name]
			v := verdict(spec, ma, mb)
			switch v {
			case verdictWorse:
				worse++
			case verdictUnresolved:
				unresolved++
			}
			fmt.Fprintf(w, "%-15s %-15s %12.4f %12.4f %+7.1f%% %5.0f%%  %-22s %-22s %s\n",
				def.Name, spec.Name, ma.Value, mb.Value, relChangePct(ma.Value, mb.Value),
				100*spec.Bound, fmtQuartiles(ma.Segments), fmtQuartiles(mb.Segments), v)
		}
		fa, fb := failRatio(wa.EndToEnd), failRatio(wb.EndToEnd)
		v := verdictSame
		if fb > fa {
			v = verdictWorse
			worse++
		}
		fmt.Fprintf(w, "%-15s %-15s %12.6f %12.6f %8s %6s  %-22s %-22s %s\n",
			def.Name, "failed/attempted", fa, fb, "", "0", "-", "-", v)
	}

	// Counts and simulated figures involve no clock: between two runs of
	// one commit and seed they must be bit-equal.
	differ := 0
	for _, def := range workloadDefs {
		wa, wb := a.workload(def.Name), b.workload(def.Name)
		if wa == nil || wb == nil || wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, spec := range perLayer {
			if !spec.Exact {
				continue
			}
			va, vb := wa.PerLayer.Metrics[spec.Name].Value, wb.PerLayer.Metrics[spec.Name].Value
			if va != vb {
				differ++
				fmt.Fprintf(w, "exact metric differs: %s %s: %v vs %v\n", def.Name, spec.Name, va, vb)
			}
		}
	}
	fmt.Fprintf(w, "%d worse, %d unresolved, %d exact per-layer metrics differ\n", worse, unresolved, differ)
	return worse, unresolved
}

// relChangePct is B relative to A as measured, in percent.
func relChangePct(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return 100 * (b - a) / a
}

// runCompare is `bench compare A.json B.json`; it exits non-zero when any
// row is worse.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sides [2]*fullResult
	for i, path := range args {
		r, err := readResult(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = r
	}
	if worse, _ := compareResults(sides[0], sides[1], w); worse > 0 {
		return 1
	}
	return 0
}

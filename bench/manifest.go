package main

import (
	"encoding/json"
	"io"
)

// manifest is BENCHMARK.json: exactly these keys, generated from the tables
// in spec.go and workload.go so the file and the program cannot drift
// (`bench manifest > BENCHMARK.json`; spec_test.go checks the committed
// file against it).
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, d := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: d.Name, Why: d.Why})
	}
	for _, s := range endToEnd {
		bound := s.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: s.Name, Unit: s.Unit, Better: s.Better, Bound: &bound})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: s.Name, Unit: s.Unit, Better: s.Better})
	}
	return m
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest())
}

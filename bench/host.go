package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"

	"poseidon/internal/ring"
)

// maxProcs caps GOMAXPROCS and the evaluator worker pool: results from
// hosts with more cores stay comparable with the 2-core reference box, and
// the tenants stated per workload are the only other source of parallelism.
const maxProcs = 2

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

// hostInfo is stamped on every result.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	CPUModel   string `json:"cpu_model"`
	CPUFlags   string `json:"cpu_flags"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

// pinHost fixes GOMAXPROCS at min(nproc, 2) before anything sizes a worker
// pool from it, and refuses to run oversubscribed: with more Ps than cores
// the timed goroutines time-slice and every latency includes the
// scheduler's quantum.
func pinHost() (hostInfo, error) {
	nproc := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return hostInfo{}, fmt.Errorf("GOMAXPROCS %d exceeds the %d available CPUs", g, nproc)
	}
	procs := nproc
	if procs > maxProcs {
		procs = maxProcs
	}
	runtime.GOMAXPROCS(procs)
	h := hostInfo{
		NProc:      nproc,
		GOMAXPROCS: procs,
		// Parameters built with Workers 0 share this pool; it reads
		// GOMAXPROCS once, here.
		Workers:   ring.DefaultPool().Workers(),
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Commit:    commit(),
	}
	h.CPUModel, h.CPUFlags = cpuInfo()
	return h, nil
}

// commit is the VCS revision the binary was built from, "unknown" outside a
// repository (the driver's checkouts are plain directories).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 12 {
				return s.Value[:12]
			}
		}
	}
	return "unknown"
}

func cpuInfo() (model, flags string) {
	model, flags = "unknown", ""
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, flags
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(k) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(v)
			}
		case "flags":
			if flags == "" {
				flags = strings.TrimSpace(v)
			}
		}
	}
	return model, flags
}

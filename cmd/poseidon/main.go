// Command poseidon regenerates every table and figure of the paper's
// evaluation from the models in this repository. Each subcommand maps to
// one experiment; `all` runs everything. This machine's measured software
// timings are bench/'s per-layer ledger, and a served request's trace is
// exported by poseidond's /debug/requests?format=chrome.
//
// Usage:
//
//	poseidon <experiment> [flags]
//
// Experiments: table1 … table12, fig7 … fig12, all
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
)

type experiment struct {
	name string
	desc string
	run  func(*flag.FlagSet, []string) error
}

var experiments []experiment

func register(name, desc string, run func(*flag.FlagSet, []string) error) {
	experiments = append(experiments, experiment{name, desc, run})
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	name := os.Args[1]
	if name == "all" {
		sort.Slice(experiments, func(i, j int) bool { return experiments[i].name < experiments[j].name })
		for _, e := range experiments {
			fs := flag.NewFlagSet(e.name, flag.ExitOnError)
			if err := e.run(fs, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
		}
		return
	}
	for _, e := range experiments {
		if e.name == name {
			fs := flag.NewFlagSet(e.name, flag.ExitOnError)
			if err := e.run(fs, os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
				os.Exit(1)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", name)
	usage()
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: poseidon <experiment> [flags]")
	fmt.Fprintln(os.Stderr, "\nexperiments:")
	sorted := append([]experiment(nil), experiments...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, e := range sorted {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", e.name, e.desc)
	}
	fmt.Fprintln(os.Stderr, "  all        run every experiment")
}

package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
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

// Every registered experiment must run without error — the harness stays
// wired as the models evolve — and must leave the source tree exactly as it
// found it.
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
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
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

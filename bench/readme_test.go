package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const (
	tableBegin = "<!-- table:begin -->\n"
	tableEnd   = "<!-- table:end -->"
)

// The README's seed-state numbers are generated from the committed baseline,
// never typed: regenerate the block with `bench table` when either changes.
func TestReadmeTableIsGeneratedFromTheBaseline(t *testing.T) {
	res, err := readResult("results/baseline-seed1.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	writeTable(res, &want)

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), tableBegin)
	block, _, ok2 := strings.Cut(rest, tableEnd)
	if !ok || !ok2 {
		t.Fatal("README.md lost its table markers")
	}
	if block != want.String() {
		t.Errorf("README.md's numbers table is stale; `bench table results/baseline-seed1.json` prints:\n%s", want.String())
	}
	if res.Config.Smoke || res.Config.Seed != 1 {
		t.Errorf("the committed baseline must be a full run on seed 1, got %+v", res.Config)
	}
}

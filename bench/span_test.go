package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 100, End: 200}
	cases := []struct {
		name     string
		children []span
		want     int64
	}{
		{"empty", nil, 100},
		{"one child", []span{{Start: 110, End: 150}}, 60},
		{"disjoint", []span{{Start: 110, End: 120}, {Start: 150, End: 170}}, 70},
		{"overlapping siblings", []span{{Start: 110, End: 160}, {Start: 140, End: 180}}, 30},
		{"nested siblings", []span{{Start: 110, End: 190}, {Start: 120, End: 130}}, 20},
		{"touching", []span{{Start: 100, End: 150}, {Start: 150, End: 200}}, 0},
		{"sticks out both ends", []span{{Start: 50, End: 120}, {Start: 190, End: 400}}, 70},
		{"outside entirely", []span{{Start: 10, End: 90}, {Start: 210, End: 300}}, 100},
		{"zero length", []span{{Start: 150, End: 150}}, 100},
		{"unsorted input", []span{{Start: 170, End: 180}, {Start: 110, End: 120}}, 80},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLedgerAccountsForTheWholeParent(t *testing.T) {
	// Two unit ops; grandchildren must not be charged to the root.
	spans := []span{
		{Name: "op", Start: 0, End: 1000, Parent: noSpan, Op: 0},
		{Name: "a", Start: 0, End: 400, Parent: 0, Op: 0},
		{Name: "b", Start: 400, End: 900, Parent: 0, Op: 0},
		{Name: "inner", Start: 410, End: 500, Parent: 2, Op: 0},
		{Name: "op", Start: 2000, End: 3000, Parent: noSpan, Op: 1},
		{Name: "a", Start: 2000, End: 2600, Parent: 4, Op: 1},
		{Name: "a", Start: 2500, End: 2800, Parent: 4, Op: 1}, // overlaps its sibling
	}
	lg := buildLedger(spans, "op")
	if lg.Count != 2 {
		t.Fatalf("ledger counted %d parents, want 2", lg.Count)
	}
	if got := lg.child("a").SharePct; !near(got, 100*1300.0/2000) {
		t.Errorf("share(a) = %v", got)
	}
	if got := lg.child("b").SharePct; !near(got, 25) {
		t.Errorf("share(b) = %v", got)
	}
	if got := lg.child("inner").SharePct; got != 0 {
		t.Errorf("a grandchild was charged to the root: %v", got)
	}
	// op 0: self 100; op 1: union [2000,2800] covers 800, self 200.
	if !near(lg.SelfPct, 100*300.0/2000) {
		t.Errorf("self %v%%, want 15%%", lg.SelfPct)
	}
	if !near(lg.OverlapPct, 100*100.0/2000) {
		t.Errorf("overlap %v%%, want 5%%", lg.OverlapPct)
	}
	// Σ children − overlap + self is the whole parent.
	sum := lg.SelfPct - lg.OverlapPct
	for _, c := range lg.Children {
		sum += c.SharePct
	}
	if !near(sum, 100) {
		t.Errorf("children + self − overlap = %v%%, want 100%%", sum)
	}
	if got := buildLedger(spans, "absent"); got.Count != 0 || len(got.Children) != 0 {
		t.Errorf("ledger of an absent name = %+v", got)
	}
}

func TestTracerNilIsUntracedAndFullCountsDrops(t *testing.T) {
	var off *tracer
	if i := off.begin("x", noSpan, 0); i != noSpan {
		t.Errorf("nil tracer handed out span %d", i)
	}
	off.end(noSpan)
	if off.recorded() != nil {
		t.Error("nil tracer recorded spans")
	}

	tr := newTracer(2)
	a := tr.begin("a", noSpan, 0)
	b := tr.begin("b", a, 0)
	tr.end(b)
	tr.end(a)
	if c := tr.begin("c", a, 0); c != noSpan {
		t.Errorf("full tracer handed out span %d", c)
	}
	if tr.dropped.Load() != 1 || len(tr.recorded()) != 2 {
		t.Errorf("dropped %d, recorded %d; want 1, 2", tr.dropped.Load(), len(tr.recorded()))
	}
	if s := tr.recorded()[1]; s.Parent != a || s.End < s.Start {
		t.Errorf("child span %+v", s)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := tr.writeJSONL(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(blob), "\n"); lines != 2 {
		t.Errorf("trace file has %d lines, want 2", lines)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Records are fixed
// size and live in a slice allocated before the clock starts; a span's index
// is its identity, Parent is the index of the span that caused it (noSpan
// for a unit op's root) and Op is the unit op it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

const noSpan int32 = -1

// tracer records harness-side spans. A nil *tracer is the untraced pass:
// begin returns noSpan and end ignores it, so workloads thread span calls
// through their op loops unconditionally. Slots are claimed with one atomic
// add, so serving tenants record concurrently without a lock; when the
// slice is full further spans are counted in dropped, never silently lost.
type tracer struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) begin(name string, parent, op int32) int32 {
	if t == nil {
		return noSpan
	}
	i := t.next.Add(1) - 1
	if int(i) >= len(t.spans) {
		t.dropped.Add(1)
		return noSpan
	}
	t.spans[i] = span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: op}
	return i
}

func (t *tracer) end(i int32) {
	if t == nil || i == noSpan {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
}

// add records an already-measured interval (absolute unix nanoseconds), the
// way the server's own tracer reports its stages.
func (t *tracer) add(name string, parent, op int32, startUnixNs, durNs int64) {
	i := t.begin(name, parent, op)
	if i == noSpan {
		return
	}
	s := startUnixNs - t.epoch.UnixNano()
	t.spans[i].Start, t.spans[i].End = s, s+durNs
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.recorded() {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTime is a span's duration minus the part of its interval its children
// cover. Children may overlap one another (a burst's sibling requests) and
// may stick out of the parent (a clock read on another goroutine): the
// covered part is the union of the children clipped to the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] <= curHi:
			if x[1] > curHi {
				curHi = x[1]
			}
		default:
			covered += curHi - curLo
			curLo, curHi = x[0], x[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return (parent.End - parent.Start) - covered
}

// ledgerRow is one child-span name under a parent name: how much of the
// parent's time calls of that name take, per parent span.
type ledgerRow struct {
	Name     string  `json:"name"`
	Calls    float64 `json:"calls_per_parent"`
	MeanMs   float64 `json:"mean_ms_per_parent"` // Σ child durations ÷ parents
	SharePct float64 `json:"share_pct"`          // of the parents' total duration
}

// ledger explains every span of one name as its direct children by name
// plus self time: parent = Σ children (union) + self, by construction.
type ledger struct {
	Parent     string      `json:"parent"`
	Count      int         `json:"count"`
	MeanMs     float64     `json:"mean_ms"`
	Children   []ledgerRow `json:"children"`
	SelfPct    float64     `json:"self_pct"`    // unattributed share: the residual
	OverlapPct float64     `json:"overlap_pct"` // Σ children − union, when siblings run concurrently
}

// buildLedger aggregates over all recorded spans named parentName.
func buildLedger(spans []span, parentName string) ledger {
	kids := map[int32][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	lg := ledger{Parent: parentName}
	var total, self, childSum int64
	type acc struct {
		calls int
		ns    int64
	}
	byName := map[string]*acc{}
	for i, s := range spans {
		if s.Name != parentName || s.End <= s.Start {
			continue
		}
		lg.Count++
		total += s.End - s.Start
		cs := kids[int32(i)]
		self += selfTime(s, cs)
		for _, c := range cs {
			a := byName[c.Name]
			if a == nil {
				a = &acc{}
				byName[c.Name] = a
			}
			a.calls++
			a.ns += c.End - c.Start
			childSum += c.End - c.Start
		}
	}
	if lg.Count == 0 || total == 0 {
		return lg
	}
	n := float64(lg.Count)
	lg.MeanMs = float64(total) / n / 1e6
	for name, a := range byName {
		lg.Children = append(lg.Children, ledgerRow{
			Name:     name,
			Calls:    float64(a.calls) / n,
			MeanMs:   float64(a.ns) / n / 1e6,
			SharePct: 100 * float64(a.ns) / float64(total),
		})
	}
	sort.Slice(lg.Children, func(i, j int) bool {
		if lg.Children[i].SharePct != lg.Children[j].SharePct {
			return lg.Children[i].SharePct > lg.Children[j].SharePct
		}
		return lg.Children[i].Name < lg.Children[j].Name
	})
	lg.SelfPct = 100 * float64(self) / float64(total)
	lg.OverlapPct = 100 * float64(childSum-(total-self)) / float64(total)
	return lg
}

// child returns the named child's row, zero when absent.
func (lg ledger) child(name string) ledgerRow {
	for _, c := range lg.Children {
		if c.Name == name {
			return c
		}
	}
	return ledgerRow{}
}

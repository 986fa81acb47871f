package poseidon

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"poseidon/internal/trace"
)

// TraceRecorder observes an evaluator and accumulates an operation trace:
// run any FHE program functionally once, then price the recorded trace on
// any accelerator design point. Install with Eval.SetObserver(recorder).
//
// The recorder is safe for concurrent use, so it can observe an evaluator
// shared across goroutines — though interleaved recordings lose any
// meaningful op ordering, and phase tags apply to whatever lands after
// SetPhase.
type TraceRecorder struct {
	mu      sync.Mutex
	tr      *Trace
	tag     string
	dropped atomic.Uint64
}

// NewTraceRecorder starts a recorder for a named workload.
func NewTraceRecorder(name string) *TraceRecorder {
	return &TraceRecorder{tr: &Trace{Name: name}}
}

// SetPhase labels subsequent operations with a workload-phase tag
// (surfaced by the simulator's per-phase breakdown).
func (r *TraceRecorder) SetPhase(tag string) {
	r.mu.Lock()
	r.tag = tag
	r.mu.Unlock()
}

// SetWorkers stamps the trace with the limb-parallel worker count of the
// evaluator it observes (typically Eval.Workers()), so reports stay
// attributable to the execution engine that produced them.
func (r *TraceRecorder) SetWorkers(n int) {
	r.mu.Lock()
	r.tr.Workers = n
	r.mu.Unlock()
}

// ObserveOp implements OpSink. The model prices completed basic operations:
// a failed op did no work the accelerator would be charged for, an engine
// phase is timing detail inside ops that are reported themselves, and an
// unpriced report is only a recovery outcome — whoever else rides the same
// Fanout.
func (r *TraceRecorder) ObserveOp(e OpEvent) {
	if e.Err != nil || e.Phase != "" || e.Unpriced {
		return
	}
	kind, ok := trace.KindByName(e.Op)
	if !ok {
		// Unknown ops are excluded from the priced trace rather than
		// mis-binned — but counted, so a renamed op can't vanish silently.
		r.dropped.Add(1)
		return
	}
	r.mu.Lock()
	r.tr.AddTagged(kind, e.Level+1, 1, r.tag)
	r.mu.Unlock()
}

// Dropped reports how many observations carried an op name outside the
// trace kind set and were therefore excluded from the recorded trace.
func (r *TraceRecorder) Dropped() uint64 { return r.dropped.Load() }

// Trace returns a copy of the accumulated trace, taken under the lock, so a
// caller may read or price it while other goroutines keep recording.
func (r *TraceRecorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	tr := *r.tr
	tr.Ops = slices.Clone(r.tr.Ops)
	return &tr
}

// PriceRecorded is a convenience: simulate the recorded trace on a design
// point and return the modeled wall time in seconds.
func PriceRecorded(r *TraceRecorder, cfg Config, params FHEParams) (float64, error) {
	model, err := NewModel(cfg, params)
	if err != nil {
		return 0, fmt.Errorf("poseidon: %w", err)
	}
	rep := Simulate(model, DefaultEnergy(), r.Trace())
	return rep.TotalTime, nil
}

package poseidon

import (
	"fmt"
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

// CaptureArena snapshots the parameters' polynomial-arena counters into the
// trace's memory profile: total slab footprint and the high-water mark of
// simultaneously checked-out scratch. Call it after the workload has run —
// the peak is cumulative over the arena's lifetime.
func (r *TraceRecorder) CaptureArena(params *Parameters) {
	st := params.ArenaStats()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tr.Mem == nil {
		r.tr.Mem = &trace.MemStats{}
	}
	r.tr.Mem.ArenaBytes = st.BytesAllocated
	r.tr.Mem.PeakArenaBytes = st.PeakBytes
}

// CaptureGuards snapshots an evaluator's integrity-guard and recovery
// counters into the trace's fault profile: seals computed, boundary
// verifications, spot checks, detected faults, noise-budget refusals, and
// — when a recovery policy is installed — re-execution attempts and their
// outcomes. Call it after the workload has run; a guard-free evaluator
// records all zeros.
func (r *TraceRecorder) CaptureGuards(ev *Evaluator) {
	gs := ev.GuardStats()
	rs := ev.RecoveryStats()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tr.Fault = &trace.FaultStats{
		Seals:           gs.Seals,
		Verifies:        gs.Verifies,
		SpotChecks:      gs.SpotChecks,
		IntegrityFaults: gs.IntegrityFaults,
		NoiseFlags:      gs.NoiseFlags,
		RetryAttempts:   rs.Attempts,
		Recovered:       rs.Recovered,
		Unrecoverable:   rs.Unrecoverable,
	}
}

// SetHeapStats records externally measured Go-heap figures (e.g. from
// testing.AllocsPerRun or a -benchmem run) in the trace's memory profile.
func (r *TraceRecorder) SetHeapStats(allocsPerOp, bytesPerOp float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.tr.Mem == nil {
		r.tr.Mem = &trace.MemStats{}
	}
	r.tr.Mem.AllocsPerOp = allocsPerOp
	r.tr.Mem.BytesPerOp = bytesPerOp
}

// Trace returns the accumulated trace.
func (r *TraceRecorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tr
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

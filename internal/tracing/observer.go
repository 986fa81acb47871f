package tracing

import (
	"sync/atomic"
	"time"
)

// EvalObserver bridges the ckks observer plumbing into request traces.
// It structurally implements ckks.OpObserver, ckks.SpanObserver and
// ckks.RecoveryObserver (no ckks import — the evaluator asserts the
// interfaces), so it can ride a ckks.Fanout next to the telemetry
// collector on every tenant evaluator.
//
// The scheduler activates a scope (trace + parent span) around each job's
// evaluator call and deactivates it after; evaluation happens on the
// single dispatcher goroutine, so one atomic slot suffices. Observations
// arriving with no active scope (warm-up, registry smoke tests) fall
// through to a nil trace and cost one atomic load.
type EvalObserver struct {
	active atomic.Pointer[scope]
}

type scope struct {
	rt     *RequestTrace
	parent SpanRef
}

// Activate points evaluator observations at rt, parenting op spans under
// parent. Passing a nil rt is equivalent to Deactivate.
func (o *EvalObserver) Activate(rt *RequestTrace, parent SpanRef) {
	if rt == nil {
		o.active.Store(nil)
		return
	}
	o.active.Store(&scope{rt: rt, parent: parent})
}

// Deactivate detaches the current scope.
func (o *EvalObserver) Deactivate() { o.active.Store(nil) }

// Observe implements the count-only OpObserver method; per-op counting is
// the collector's job, so this is a no-op.
func (o *EvalObserver) Observe(op string, level int) {}

// ObserveSpan attaches one completed op (or '/'-tagged phase) span to the
// active request's tree.
func (o *EvalObserver) ObserveSpan(op string, level int, dur time.Duration, err error) {
	sc := o.active.Load()
	if sc == nil {
		return
	}
	sc.rt.AddOpSpan(sc.parent, op, level, dur, err)
}

// ObserveRecovery records an op-level recovery outcome as a span on the
// active trace.
func (o *EvalObserver) ObserveRecovery(op string, retries int, recovered bool, dur time.Duration) {
	sc := o.active.Load()
	if sc == nil {
		return
	}
	ref := sc.rt.AddSpan(sc.parent, "recovery", dur, nil)
	sc.rt.Annotate(ref, "op", op)
	sc.rt.AnnotateInt(ref, "retries", int64(retries))
	if recovered {
		sc.rt.Annotate(ref, "outcome", "recovered")
	} else {
		sc.rt.Annotate(ref, "outcome", "unrecoverable")
	}
}

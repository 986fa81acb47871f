package tracing

import (
	"sync/atomic"

	"poseidon/internal/trace"
)

// EvalObserver bridges the evaluator's op events into request traces: a
// trace.OpSink that rides a ckks.Fanout next to the telemetry collector on
// a tenant evaluator.
//
// One observer holds one scope (trace + parent span), so it serves one
// evaluation at a time: the scheduler gives every dispatch lane its own
// observer, reached through that lane's view of each tenant's evaluator,
// and a lane activates the scope around each job's evaluator call and
// deactivates it after. Two lanes sharing an observer would not race — the
// slot is atomic — but op spans would land on whichever request activated
// last. Events arriving with no active scope (warm-up, registry smoke
// tests) cost one atomic load.
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

// ObserveOp implements trace.OpSink: one completed op (or, named
// "<op>/<phase>", engine phase) becomes a span on the active request's tree,
// after a "recovery" span when the recovery loop re-executed it.
func (o *EvalObserver) ObserveOp(e trace.OpEvent) {
	sc := o.active.Load()
	if sc == nil {
		return
	}
	if e.Retries > 0 {
		ref := sc.rt.AddSpan(sc.parent, "recovery", e.Recovery, nil)
		sc.rt.Annotate(ref, "op", e.Op)
		sc.rt.AnnotateInt(ref, "retries", int64(e.Retries))
		if e.Err == nil {
			sc.rt.Annotate(ref, "outcome", "recovered")
		} else {
			sc.rt.Annotate(ref, "outcome", "unrecoverable")
		}
	}
	if e.Unpriced {
		return
	}
	name := e.Op
	if e.Phase != "" {
		name += "/" + e.Phase
	}
	sc.rt.AddOpSpan(sc.parent, name, e.Level, e.Dur, e.Err)
}

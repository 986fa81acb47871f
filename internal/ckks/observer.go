package ckks

import (
	"context"
	rttrace "runtime/trace"
	"time"

	"poseidon/internal/trace"
)

// What the evaluator reports, and to whom. Every emit site — exec's finish
// for the basic ops, the linear-transform engine for its per-group LinTrans
// op and its four phases — builds one trace.OpEvent and hands it to emit,
// the only function that calls the installed trace.OpSink. Sinks let
// application code be profiled into operation traces the accelerator model
// can price (TraceRecorder), into latency histograms (telemetry.Collector)
// and into request span trees (tracing.EvalObserver): write the FHE program
// once, run it functionally, and cost it on the modeled hardware.

// SetObserver installs (or clears, with nil) the evaluator's sink. With one
// installed every reported op is wrapped in a nanosecond timestamp pair and
// a runtime/trace region named after it, so execution traces (`go tool
// trace`) attribute time to FHE operators instead of Go internals; with none
// the instrumentation is a nil check. Either way the path allocates nothing
// (alloc_test.go, and the root package's TestZeroAllocChainObserved).
func (ev *Evaluator) SetObserver(s trace.OpSink) { ev.sink = s }

// WithObserver returns a view of the evaluator that reports to s instead:
// keys, pool, guards and recovery are shared with the receiver (the
// WithWorkers pattern), only the sink differs. It is how callers that run
// one key set from several goroutines at once give each its own sink.
func (ev *Evaluator) WithObserver(s trace.OpSink) *Evaluator {
	e2 := *ev
	e2.sink = s
	return &e2
}

// Observer returns the installed sink (nil if none) — so callers layering
// telemetry on top of an existing recorder can preserve it through Fanout.
func (ev *Evaluator) Observer() trace.OpSink { return ev.sink }

// opSpan carries an op's timing state from beginOp to emit: the start
// timestamp and the runtime/trace region. It is a stack value (StartRegion
// returns a shared no-op region while tracing is off).
type opSpan struct {
	start  time.Time
	region *rttrace.Region
}

// beginOp opens a span when a sink is installed; otherwise it is a nil check
// and returns the zero span.
func (ev *Evaluator) beginOp(name string) (s opSpan) {
	if ev.sink != nil {
		s.region = rttrace.StartRegion(context.Background(), name)
		s.start = time.Now()
	}
	return
}

// cancel closes a span that turned out to have nothing to report.
func (s opSpan) cancel() {
	if s.region != nil {
		s.region.End()
	}
}

// emit closes the span and reports the event: a success carries the span's
// duration, a failure none. The zero span (an op that is reported only
// because it was retried) reports no duration either.
func (ev *Evaluator) emit(s opSpan, e trace.OpEvent) {
	if s.region != nil {
		if e.Err == nil {
			e.Dur = time.Since(s.start)
		}
		s.region.End()
	}
	if ev.sink != nil {
		ev.sink.ObserveOp(e)
	}
}

// fanout delivers each event to every member, in order.
type fanout []trace.OpSink

func (f fanout) ObserveOp(e trace.OpEvent) {
	for _, s := range f {
		s.ObserveOp(e)
	}
}

// Fanout combines sinks into one, so that one timed measurement feeds a
// trace recorder, a telemetry collector and a request tracer together. Nil
// entries are skipped; a single non-nil sink is returned as-is.
func Fanout(sinks ...trace.OpSink) trace.OpSink {
	var kept fanout
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

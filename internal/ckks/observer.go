package ckks

import (
	"context"
	rttrace "runtime/trace"
	"time"
)

// OpObserver receives a callback for every basic operation the evaluator
// executes, with the level it ran at. Observers let application code be
// profiled into operation traces that the accelerator model can price —
// write the FHE program once, run it functionally, and cost it on the
// modeled hardware. Implementations must be safe for concurrent use: an
// evaluator may be shared between goroutines, and Bootstrap reports its two
// EvalMod halves from two of them.
type OpObserver interface {
	Observe(op string, level int)
}

// SpanObserver widens OpObserver to timed spans: the evaluator reports the
// measured wall time of each basic op, plus the error outcome of a failed
// one (dur 0 for failed or count-only observations). Installing a
// SpanObserver via SetObserver switches the evaluator into timed mode: every
// basic op — exec opens the span before validating and closes it after the
// output seal — is wrapped in a nanosecond
// timestamp pair and a runtime/trace region named after the op, so
// execution traces (`go tool trace`) attribute time to FHE operators
// instead of Go internals. When no SpanObserver is installed, the timing
// path is a nil check — the zero-allocation gates in alloc_test.go run with
// observers off and still hold with a span observer on (after warm-up).
type SpanObserver interface {
	OpObserver
	ObserveSpan(op string, level int, dur time.Duration, err error)
}

// SetObserver installs (or clears, with nil) the evaluator's observer. An
// observer that also implements SpanObserver receives timed spans; a plain
// OpObserver keeps the legacy count-only callbacks.
func (ev *Evaluator) SetObserver(o OpObserver) {
	ev.observer = o
	ev.spans, _ = o.(SpanObserver)
}

// Observer returns the currently installed observer (nil if none) — so
// callers layering telemetry on top of an existing recorder can preserve it
// through Fanout.
func (ev *Evaluator) Observer() OpObserver { return ev.observer }

func (ev *Evaluator) observe(op string, level int) {
	if ev.observer != nil {
		ev.observer.Observe(op, level)
	}
}

// opSpan carries the per-op timing state between beginOp and endOp: the
// start timestamp and the runtime/trace region. It is a stack value — the
// span path performs zero heap allocations (StartRegion returns a shared
// no-op region while tracing is off).
type opSpan struct {
	start  time.Time
	region *rttrace.Region
}

// beginOp opens a timed span when a SpanObserver is installed; otherwise it
// is two nil checks and returns the zero span.
func (ev *Evaluator) beginOp(op string) (s opSpan) {
	if ev.spans != nil {
		s.region = rttrace.StartRegion(context.Background(), op)
		s.start = time.Now()
	}
	return
}

// endOp closes the span and reports the op's outcome: a timed ObserveSpan
// when a SpanObserver opened the span (zero-duration and carrying the error
// for a failed op), the legacy count-only Observe for a plain observer —
// which hears of successes only.
func (ev *Evaluator) endOp(op string, level int, s opSpan, err error) {
	if sp := ev.spans; sp != nil && s.region != nil {
		d := time.Since(s.start)
		s.region.End()
		if err != nil {
			d = 0
		}
		sp.ObserveSpan(op, level, d, err)
		return
	}
	if o := ev.observer; o != nil && err == nil {
		o.Observe(op, level)
	}
}

// cancel closes a span that turned out to have nothing to report.
func (s opSpan) cancel() {
	if s.region != nil {
		s.region.End()
	}
}

// fanout broadcasts observations to several observers; it implements
// SpanObserver so that one timed measurement feeds a trace recorder and a
// telemetry collector simultaneously.
type fanout struct{ obs []OpObserver }

func (f *fanout) Observe(op string, level int) {
	for _, o := range f.obs {
		o.Observe(op, level)
	}
}

// ObserveRecovery forwards recovery outcomes to every member that
// implements RecoveryObserver. Without this, fanning a request-trace sink
// next to the telemetry collector would silently sever the collector's
// recovery feed — the evaluator type-asserts RecoveryObserver on whatever
// single observer is installed.
func (f *fanout) ObserveRecovery(op string, retries int, recovered bool, dur time.Duration) {
	for _, o := range f.obs {
		if r, ok := o.(RecoveryObserver); ok {
			r.ObserveRecovery(op, retries, recovered, dur)
		}
	}
}

func (f *fanout) ObserveSpan(op string, level int, dur time.Duration, err error) {
	for _, o := range f.obs {
		if s, ok := o.(SpanObserver); ok {
			s.ObserveSpan(op, level, dur, err)
		} else {
			o.Observe(op, level)
		}
	}
}

// Fanout combines observers into one: spans are timed once and delivered to
// every SpanObserver in the list, while plain OpObservers receive the legacy
// count-only callback. Nil entries are skipped; a single non-nil observer is
// returned as-is.
func Fanout(obs ...OpObserver) OpObserver {
	kept := make([]OpObserver, 0, len(obs))
	for _, o := range obs {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &fanout{obs: kept}
}

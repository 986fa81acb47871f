package trace

import "time"

// OpEvent is the one report the evaluator makes about an operation: what
// ran, at which level, how long it took and how it ended. Every consumer —
// the model-trace recorder, the telemetry collector, the request tracer —
// receives the same value and decides for itself what a failure, a phase or
// a recovery means to it.
type OpEvent struct {
	Op    string // trace name: a Kind's paper name ("CMult", "Rescale", "LinTrans", …)
	Phase string // "" for a basic op; "hoist", "baby", "giant" or "finish" for a sub-phase nested inside Op
	Level int    // level the op ran at: the lowest operand level, limbs − 1

	Dur time.Duration // wall time; 0 for a failed op
	Err error         // nil on success, else the *OpError the caller received

	// Retries is the number of re-executions the recovery loop performed (0:
	// the first attempt stood, or no policy is installed); Recovery is the
	// wall time from the first failed attempt to the final outcome. An op
	// with Retries > 0 was recovered when Err is nil and was not otherwise.
	Retries  int
	Recovery time.Duration

	// Unpriced marks a report that is not an operation of the accelerator
	// model's trace: an op the evaluator does not otherwise report (HNeg,
	// MulByI, Hoist, an identity rotation) that entered the recovery loop.
	// Only its recovery outcome is news.
	Unpriced bool
}

// OpSink receives every OpEvent of the evaluator it is installed on.
// Implementations must be safe for concurrent use: an evaluator may be
// shared between goroutines, and Bootstrap reports its two EvalMod halves
// from two of them.
type OpSink interface {
	ObserveOp(OpEvent)
}

package telemetry

import (
	"context"
	"runtime/pprof"
)

// Profiling hooks. Two mechanisms cooperate:
//
//   - The evaluator, with any sink installed, opens a runtime/trace region
//     named after each op it reports, so `go tool trace` execution traces
//     attribute time to FHE operators — the software analogue of
//     HF-NTT-style per-operator stall attribution.
//   - Do wraps a workload phase in pprof labels, so CPU flamegraphs can be
//     filtered by workload and phase (`pprof -tagfocus phase=bootstrap`).

// Do runs fn with pprof labels {workload, phase} applied to its goroutine —
// samples taken inside attribute to the labeled workload in pprof output.
// Labels compose with the evaluator's per-op trace regions.
func Do(ctx context.Context, workload, phase string, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels("workload", workload, "phase", phase), fn)
}

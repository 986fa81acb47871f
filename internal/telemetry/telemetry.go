// Package telemetry is the runtime observability layer of the Poseidon
// reproduction: low-overhead per-operation latency histograms keyed by
// (op kind, limb count), profiling hooks (pprof labels, runtime/trace
// regions — the regions themselves are opened by the evaluator around every
// op it reports), live exporters (Prometheus text format on an optional
// HTTP endpoint with /debug/pprof), and a model-vs-measured
// calibration that joins measured wall time with the accelerator model's
// predictions — the software analogue of the comparison Poseidon's Table VII
// evaluation rests on.
//
// The Collector is a trace.OpSink: install it with Eval.SetObserver (or
// Kit.EnableTelemetry) and every basic op's wall time lands in a lock-free
// sharded histogram. When no sink is installed the evaluator's
// instrumentation is a nil check; with the collector installed, the
// steady-state record path performs zero heap allocations after warm-up
// (the root package's TestZeroAllocChainObserved; the time it costs is
// ckks.observer_overhead_pct in bench/).
package telemetry

import (
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/trace"
)

// MaxLimbs caps the limb-count label dimension: ops at more than MaxLimbs
// limbs are clamped into the top slot, bounding label cardinality at
// kinds × (MaxLimbs+1) regardless of parameter set.
const MaxLimbs = 64

// Collector accumulates per-(kind, limbs) latency histograms. It is safe for
// concurrent use by any number of evaluator goroutines; the hot path is a
// map-free table lookup plus atomic adds.
type Collector struct {
	workload string

	// hists holds one latency histogram per key, populated lazily on the
	// key's first successful op — so the table costs pointers, not
	// histograms, for kinds that never run.
	hists []atomic.Pointer[Histogram]

	// unknown counts ops whose name is not a trace kind (dropped rather
	// than mis-binned); errs counts failed operations by the op name they
	// failed under.
	unknown atomic.Uint64
	errMu   sync.Mutex
	errs    map[string]uint64

	// phases accumulates engine sub-phase events (LinTrans's "giant", …):
	// timing detail nested inside ops that are already counted, so they get
	// their own table instead of the kind histograms.
	phaseMu sync.Mutex
	phases  map[phaseKey]PhaseStat

	// recovery counters, read off each event's Retries and Err: op
	// re-executions under a recovery policy, their outcomes, and the latency
	// of recovered ops from first failure to final success.
	recAttempts      atomic.Uint64
	recRecovered     atomic.Uint64
	recUnrecoverable atomic.Uint64
	recHist          *Histogram

	start time.Time

	// aux holds auxiliary metric writers appended to every /metrics scrape
	// (see RegisterAux) — the hook the serving layer uses to export its
	// scheduler gauges through the collector's endpoint.
	auxMu sync.Mutex
	aux   []func(io.Writer)
}

// NewCollector creates a collector for a named workload (the `workload`
// label on every exported metric).
func NewCollector(workload string) *Collector {
	return &Collector{
		workload: workload,
		hists:    make([]atomic.Pointer[Histogram], trace.NumKinds()*(MaxLimbs+1)),
		errs:     map[string]uint64{},
		phases:   map[phaseKey]PhaseStat{},
		recHist:  NewHistogram(),
		start:    time.Now(),
	}
}

// RecoverySnapshot summarizes the recovery counters. An op counts once it
// was re-executed at least once (Retries > 0): as recovered when its final
// outcome is success, as unrecoverable when it still failed — whatever the
// final error, an exhausted integrity budget or a retry that died otherwise.
type RecoverySnapshot struct {
	Attempts      uint64  `json:"attempts"`      // re-executions performed
	Recovered     uint64  `json:"recovered"`     // re-executed ops that succeeded
	Unrecoverable uint64  `json:"unrecoverable"` // re-executed ops that still failed
	P50Ns         float64 `json:"p50_ns"`        // recovery latency (failure → success)
	P95Ns         float64 `json:"p95_ns"`
	P99Ns         float64 `json:"p99_ns"`
	MaxNs         uint64  `json:"max_ns"`
}

// PhaseStat summarizes one engine sub-phase: how many spans landed under
// the name and their cumulative wall time.
type PhaseStat struct {
	Count uint64 `json:"count"`
	SumNs uint64 `json:"sum_ns"`
}

// phaseKey names a sub-phase without building a string on the record path.
type phaseKey struct{ op, phase string }

// Phases returns a copy of the sub-phase table, keyed "<op>/<phase>".
func (c *Collector) Phases() map[string]PhaseStat {
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	out := make(map[string]PhaseStat, len(c.phases))
	for k, v := range c.phases {
		out[k.op+"/"+k.phase] = v
	}
	return out
}

func keyIdx(kind trace.Kind, level int) int {
	limbs := level + 1
	if limbs < 0 {
		limbs = 0
	}
	if limbs > MaxLimbs {
		limbs = MaxLimbs
	}
	return int(kind)*(MaxLimbs+1) + limbs
}

// hist returns the histogram for a key, creating it on first use. The
// create path races benignly: the loser's histogram is dropped before any
// sample lands in it.
func (c *Collector) hist(idx int) *Histogram {
	if h := c.hists[idx].Load(); h != nil {
		return h
	}
	h := NewHistogram()
	if c.hists[idx].CompareAndSwap(nil, h) {
		return h
	}
	return c.hists[idx].Load()
}

// ObserveOp implements trace.OpSink. What the recovery loop did is counted
// whatever the op: an op re-executed at least once is recovered (and a
// latency sample) when it succeeded, unrecoverable when it still failed. Then a failed op counts as an error under its name and
// contributes no latency sample, a phase lands in the phase table, and a
// successful basic op in its (kind, limbs) histogram.
func (c *Collector) ObserveOp(e trace.OpEvent) {
	if e.Retries > 0 {
		c.recAttempts.Add(uint64(e.Retries))
		if e.Err == nil {
			c.recRecovered.Add(1)
			c.recHist.Observe(uint64(e.Recovery))
		} else {
			c.recUnrecoverable.Add(1)
		}
	}
	if e.Unpriced {
		return
	}
	switch {
	case e.Err != nil:
		c.errMu.Lock()
		c.errs[e.Op]++
		c.errMu.Unlock()
	case e.Phase != "":
		k := phaseKey{e.Op, e.Phase}
		c.phaseMu.Lock()
		ps := c.phases[k]
		ps.Count++
		ps.SumNs += uint64(e.Dur)
		c.phases[k] = ps
		c.phaseMu.Unlock()
	default:
		kind, ok := trace.KindByName(e.Op)
		if !ok {
			c.unknown.Add(1)
			return
		}
		c.hist(keyIdx(kind, e.Level)).Observe(uint64(e.Dur))
	}
}

// KeyStat is one (kind, limbs) row of a snapshot: the successful ops
// observed (each one latency sample), their latency summary, and the merged
// bucket counts.
type KeyStat struct {
	Kind  trace.Kind `json:"kind"`
	Op    string     `json:"op"`
	Limbs int        `json:"limbs"`

	Count uint64 `json:"count"`
	SumNs uint64 `json:"sum_ns"`
	MaxNs uint64 `json:"max_ns"`

	P50Ns float64 `json:"p50_ns"`
	P95Ns float64 `json:"p95_ns"`
	P99Ns float64 `json:"p99_ns"`

	Hist HistSnapshot `json:"-"` // merged buckets, for exporters and merges
}

// Snapshot is a consistent-enough point-in-time view of a collector.
type Snapshot struct {
	Workload   string               `json:"workload"`
	UptimeSec  float64              `json:"uptime_sec"`
	Keys       []KeyStat            `json:"keys"`
	UnknownOps uint64               `json:"unknown_ops"`
	Errors     map[string]uint64    `json:"errors,omitempty"`
	Phases     map[string]PhaseStat `json:"phases,omitempty"`
	Recovery   *RecoverySnapshot    `json:"recovery,omitempty"`
}

// Snapshot merges every shard and materializes quantiles. Keys are sorted
// by kind then limb count; keys that never saw an op are omitted.
func (c *Collector) Snapshot() *Snapshot {
	snap := &Snapshot{
		Workload:   c.workload,
		UptimeSec:  time.Since(c.start).Seconds(),
		UnknownOps: c.unknown.Load(),
	}
	for idx := range c.hists {
		h := c.hists[idx].Load()
		if h == nil {
			continue
		}
		hs := h.Snapshot()
		kind := trace.Kind(idx / (MaxLimbs + 1))
		snap.Keys = append(snap.Keys, KeyStat{
			Kind:  kind,
			Op:    kind.String(),
			Limbs: idx % (MaxLimbs + 1),
			Count: hs.Count,
			SumNs: hs.SumNs,
			MaxNs: hs.MaxNs,
			P50Ns: hs.Quantile(0.50),
			P95Ns: hs.Quantile(0.95),
			P99Ns: hs.Quantile(0.99),
			Hist:  hs,
		})
	}
	sort.Slice(snap.Keys, func(i, j int) bool {
		if snap.Keys[i].Kind != snap.Keys[j].Kind {
			return snap.Keys[i].Kind < snap.Keys[j].Kind
		}
		return snap.Keys[i].Limbs < snap.Keys[j].Limbs
	})
	c.errMu.Lock()
	if len(c.errs) > 0 {
		snap.Errors = make(map[string]uint64, len(c.errs))
		for k, v := range c.errs {
			snap.Errors[k] = v
		}
	}
	c.errMu.Unlock()
	if ph := c.Phases(); len(ph) > 0 {
		snap.Phases = ph
	}
	if att, rec, unrec := c.recAttempts.Load(), c.recRecovered.Load(), c.recUnrecoverable.Load(); att+rec+unrec > 0 {
		hs := c.recHist.Snapshot()
		snap.Recovery = &RecoverySnapshot{
			Attempts:      att,
			Recovered:     rec,
			Unrecoverable: unrec,
			P50Ns:         hs.Quantile(0.50),
			P95Ns:         hs.Quantile(0.95),
			P99Ns:         hs.Quantile(0.99),
			MaxNs:         hs.MaxNs,
		}
	}
	return snap
}

// ByKind folds a snapshot's keys over the limb dimension: one merged
// histogram summary per operation kind.
func (s *Snapshot) ByKind() map[trace.Kind]KeyStat {
	out := map[trace.Kind]KeyStat{}
	for _, ks := range s.Keys {
		agg, ok := out[ks.Kind]
		if !ok {
			agg = KeyStat{Kind: ks.Kind, Op: ks.Op, Limbs: -1}
		}
		agg.Count += ks.Count
		agg.SumNs += ks.SumNs
		if ks.MaxNs > agg.MaxNs {
			agg.MaxNs = ks.MaxNs
		}
		agg.Hist.Merge(ks.Hist)
		out[ks.Kind] = agg
	}
	for k, agg := range out {
		agg.P50Ns = agg.Hist.Quantile(0.50)
		agg.P95Ns = agg.Hist.Quantile(0.95)
		agg.P99Ns = agg.Hist.Quantile(0.99)
		out[k] = agg
	}
	return out
}

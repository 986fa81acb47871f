// Package telemetry is the runtime observability layer of the Poseidon
// reproduction: low-overhead per-operation latency histograms keyed by
// (op kind, limb count), profiling hooks (pprof labels, runtime/trace
// regions — the regions themselves are opened by the evaluator's span
// path), live exporters (Prometheus text format, expvar, an optional HTTP
// endpoint with /debug/pprof), a structured JSONL event stream for offline
// analysis, and a model-vs-measured calibration that joins measured wall
// time with the accelerator model's predictions — the software analogue of
// the comparison Poseidon's Table VII evaluation rests on.
//
// The Collector implements the ckks.SpanObserver interface without
// importing ckks: install it with Eval.SetObserver (or Kit.EnableTelemetry)
// and every basic op's wall time lands in a lock-free sharded histogram.
// When no collector is installed the evaluator's instrumentation is a nil
// check; with one installed, the steady-state record path performs zero
// heap allocations after warm-up (the root package's
// TestZeroAllocChainObserved; the time it costs is
// ckks.observer_overhead_pct in bench/).
package telemetry

import (
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/trace"
)

// MaxLimbs caps the limb-count label dimension: ops at more than MaxLimbs
// limbs are clamped into the top slot, bounding label cardinality at
// kinds × (MaxLimbs+1) regardless of parameter set.
const MaxLimbs = 64

// Collector accumulates per-(kind, limbs) operation counts and latency
// histograms. It is safe for concurrent use by any number of evaluator
// goroutines; the hot path is a map-free table lookup plus atomic adds.
type Collector struct {
	workload string

	// ops counts every observed operation, including count-only
	// observations that carry no timing (legacy Observe callbacks and the
	// trace-parity observes inside fused kernels). hists holds the latency
	// histograms, populated lazily on the first timed span of a key — so
	// the table costs pointers, not histograms, for kinds that never run.
	ops   []atomic.Uint64
	hists []atomic.Pointer[Histogram]

	// unknown counts spans whose op name is not a trace kind (dropped
	// rather than mis-binned); errs counts failed Try* operations by the
	// op name they failed under.
	unknown atomic.Uint64
	errMu   sync.Mutex
	errs    map[string]uint64

	// phases accumulates '/'-tagged engine sub-phase spans (e.g.
	// "LinTrans/giant"): timing detail nested inside ops that are already
	// counted, so they get their own table instead of the kind histograms
	// (and are not "unknown" — a phase name is intentional, not a typo).
	phaseMu sync.Mutex
	phases  map[string]PhaseStat

	// recovery counters (ckks.RecoveryObserver): op re-executions under a
	// recovery policy, their outcomes, and the latency of recovered ops
	// from first failure to final success.
	recAttempts      atomic.Uint64
	recRecovered     atomic.Uint64
	recUnrecoverable atomic.Uint64
	recHist          *Histogram

	events atomic.Pointer[EventLog]
	start  time.Time

	// aux holds auxiliary metric writers appended to every /metrics scrape
	// (see RegisterAux) — the hook the serving layer uses to export its
	// scheduler gauges through the collector's endpoint.
	auxMu sync.Mutex
	aux   []func(io.Writer)
}

// NewCollector creates a collector for a named workload (the `workload`
// label on every exported metric).
func NewCollector(workload string) *Collector {
	n := trace.NumKinds() * (MaxLimbs + 1)
	return &Collector{
		workload: workload,
		ops:      make([]atomic.Uint64, n),
		hists:    make([]atomic.Pointer[Histogram], n),
		errs:     map[string]uint64{},
		phases:   map[string]PhaseStat{},
		recHist:  NewHistogram(),
		start:    time.Now(),
	}
}

// ObserveRecovery implements the ckks.RecoveryObserver interface: one call
// per operation that entered the recovery loop, carrying the number of
// re-executions performed, whether the op eventually succeeded, and the
// wall time from first failure to final outcome. Recovered ops contribute
// a latency sample; unrecoverable ones only count.
func (c *Collector) ObserveRecovery(op string, retries int, recovered bool, dur time.Duration) {
	c.recAttempts.Add(uint64(retries))
	if recovered {
		c.recRecovered.Add(1)
		c.recHist.Observe(uint64(dur))
	} else {
		c.recUnrecoverable.Add(1)
	}
}

// RecoverySnapshot summarizes the recovery counters.
type RecoverySnapshot struct {
	Attempts      uint64  `json:"attempts"`      // re-executions performed
	Recovered     uint64  `json:"recovered"`     // ops recovered by re-execution
	Unrecoverable uint64  `json:"unrecoverable"` // ops that exhausted their budget
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

// phase files a sub-phase observation (dur 0 for count-only callbacks).
func (c *Collector) phase(op string, dur time.Duration) {
	c.phaseMu.Lock()
	ps := c.phases[op]
	ps.Count++
	ps.SumNs += uint64(dur)
	c.phases[op] = ps
	c.phaseMu.Unlock()
}

// Phases returns a copy of the sub-phase table.
func (c *Collector) Phases() map[string]PhaseStat {
	c.phaseMu.Lock()
	defer c.phaseMu.Unlock()
	out := make(map[string]PhaseStat, len(c.phases))
	for k, v := range c.phases {
		out[k] = v
	}
	return out
}

// Workload returns the collector's workload label.
func (c *Collector) Workload() string { return c.workload }

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

// Observe implements the legacy count-only observer callback: the op is
// counted but contributes no latency sample.
func (c *Collector) Observe(op string, level int) {
	kind, ok := trace.KindByName(op)
	if !ok {
		if strings.ContainsRune(op, '/') {
			c.phase(op, 0)
			return
		}
		c.unknown.Add(1)
		return
	}
	c.ops[keyIdx(kind, level)].Add(1)
}

// ObserveSpan implements the timed span observer: successful spans record
// their duration in the key's histogram; failed spans count as errors under
// their op name and contribute no latency sample.
func (c *Collector) ObserveSpan(op string, level int, dur time.Duration, err error) {
	if err != nil {
		c.errMu.Lock()
		c.errs[op]++
		c.errMu.Unlock()
		if ev := c.events.Load(); ev != nil {
			ev.emit(op, level, dur, err)
		}
		return
	}
	kind, ok := trace.KindByName(op)
	if !ok {
		if strings.ContainsRune(op, '/') {
			c.phase(op, dur)
			if ev := c.events.Load(); ev != nil {
				ev.emit(op, level, dur, nil)
			}
			return
		}
		c.unknown.Add(1)
		return
	}
	idx := keyIdx(kind, level)
	c.ops[idx].Add(1)
	c.hist(idx).Observe(uint64(dur))
	if ev := c.events.Load(); ev != nil {
		ev.emit(op, level, dur, nil)
	}
}

// UnknownOps reports how many observations carried an op name outside the
// trace kind set (and were therefore dropped from the histograms).
func (c *Collector) UnknownOps() uint64 { return c.unknown.Load() }

// KeyStat is one (kind, limbs) row of a snapshot: total observed ops, the
// timed-sample summary, and the merged bucket counts.
type KeyStat struct {
	Kind  trace.Kind `json:"kind"`
	Op    string     `json:"op"`
	Limbs int        `json:"limbs"`

	Ops   uint64 `json:"ops"`   // all observations, timed or not
	Count uint64 `json:"count"` // timed latency samples
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
	for idx := range c.ops {
		ops := c.ops[idx].Load()
		h := c.hists[idx].Load()
		if ops == 0 && h == nil {
			continue
		}
		kind := trace.Kind(idx / (MaxLimbs + 1))
		ks := KeyStat{
			Kind:  kind,
			Op:    kind.String(),
			Limbs: idx % (MaxLimbs + 1),
			Ops:   ops,
		}
		if h != nil {
			hs := h.Snapshot()
			ks.Count, ks.SumNs, ks.MaxNs = hs.Count, hs.SumNs, hs.MaxNs
			ks.P50Ns = hs.Quantile(0.50)
			ks.P95Ns = hs.Quantile(0.95)
			ks.P99Ns = hs.Quantile(0.99)
			ks.Hist = hs
		}
		snap.Keys = append(snap.Keys, ks)
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
		agg.Ops += ks.Ops
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

package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/tracing"
)

// statusOf maps an EvalCtx outcome to the HTTP status recorded on its
// trace (httpStatus has no success arm — it only ever sees failures).
func statusOf(err error) int {
	if err == nil {
		return 200
	}
	return httpStatus(err)
}

// healthMaxTenants bounds the per-tenant health map: beyond it, samples
// from new tenants are dropped (counted) rather than growing without
// bound under tenant churn.
const healthMaxTenants = 1024

// healthTracker is the ciphertext-health telemetry: per-tenant gauges for
// the result ciphertext's level, scale drift and modulus headroom
// (ckks.HeadroomBits), sampled at response encode. This is the FHE-specific
// signal no generic tracer carries — a tenant whose circuit is about to
// exhaust its modulus chain (level → 0, headroom → 0) or whose scale has
// drifted from Δ (lost precision) is visible here before results decrypt
// to garbage.
type healthTracker struct {
	mu       sync.Mutex
	tenants  map[string]*tenantHealth
	overflow uint64 // samples dropped at the tenant cap
}

type tenantHealth struct {
	level        int
	scaleDrift   float64 // log2(ct.Scale / Δ): 0 = on-scale
	headroomBits float64 // ckks.HeadroomBits: log2 Q_l − log2 scale − 10
	samples      uint64
}

func newHealthTracker() *healthTracker {
	return &healthTracker{tenants: map[string]*tenantHealth{}}
}

// sample records one response ciphertext's health. Cost is one map
// lookup and a few float ops — noise next to an FHE op, so it is always
// on once a server has a health tracker.
func (h *healthTracker) sample(tenant string, ct *ckks.Ciphertext, params *ckks.Parameters) {
	if h == nil || ct == nil {
		return
	}
	drift := 0.0
	if ct.Scale > 0 && params.Scale > 0 {
		drift = math.Log2(ct.Scale / params.Scale)
	}
	headroom := ckks.HeadroomBits(params, ct)
	h.mu.Lock()
	defer h.mu.Unlock()
	th := h.tenants[tenant]
	if th == nil {
		if len(h.tenants) >= healthMaxTenants {
			h.overflow++
			return
		}
		th = &tenantHealth{}
		h.tenants[tenant] = th
	}
	th.level = ct.Level
	th.scaleDrift = drift
	th.headroomBits = headroom
	th.samples++
}

// WritePrometheus emits the health families; registered as an aux writer
// on the collector's /metrics page.
func (h *healthTracker) WritePrometheus(w io.Writer) {
	h.mu.Lock()
	names := make([]string, 0, len(h.tenants))
	for name := range h.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct {
		name string
		th   tenantHealth
	}
	rows := make([]row, 0, len(names))
	for _, name := range names {
		rows = append(rows, row{name, *h.tenants[name]})
	}
	overflow := h.overflow
	h.mu.Unlock()

	if len(rows) == 0 && overflow == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP poseidon_ct_level Level of the tenant's most recent result ciphertext.\n")
	fmt.Fprintf(w, "# TYPE poseidon_ct_level gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "poseidon_ct_level{tenant=%q} %d\n", r.name, r.th.level)
	}
	fmt.Fprintf(w, "# HELP poseidon_ct_scale_drift_bits log2 of the result scale over the default scale (0 = on-scale).\n")
	fmt.Fprintf(w, "# TYPE poseidon_ct_scale_drift_bits gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "poseidon_ct_scale_drift_bits{tenant=%q} %g\n", r.name, r.th.scaleDrift)
	}
	fmt.Fprintf(w, "# HELP poseidon_ct_headroom_bits Modulus headroom of the result ciphertext: log2 Q_l - log2 scale - 10 bits (not a noise measurement).\n")
	fmt.Fprintf(w, "# TYPE poseidon_ct_headroom_bits gauge\n")
	for _, r := range rows {
		fmt.Fprintf(w, "poseidon_ct_headroom_bits{tenant=%q} %g\n", r.name, r.th.headroomBits)
	}
	fmt.Fprintf(w, "# HELP poseidon_ct_health_samples_total Responses sampled for ciphertext health.\n")
	fmt.Fprintf(w, "# TYPE poseidon_ct_health_samples_total counter\n")
	for _, r := range rows {
		fmt.Fprintf(w, "poseidon_ct_health_samples_total{tenant=%q} %d\n", r.name, r.th.samples)
	}
	if overflow > 0 {
		fmt.Fprintf(w, "# HELP poseidon_ct_health_overflow_total Health samples dropped at the tenant cap.\n")
		fmt.Fprintf(w, "# TYPE poseidon_ct_health_overflow_total counter\n")
		fmt.Fprintf(w, "poseidon_ct_health_overflow_total %d\n", overflow)
	}
}

// writeLatencyMetrics emits the end-to-end request latency summary with
// flight-recorder exemplar trace IDs, plus the recorder's own sampling
// counters. Exemplars ride as comment lines in OpenMetrics exemplar
// shape ("# EXEMPLAR family {trace_id=...} value ts") so the page stays
// valid Prometheus text 0.0.4 for parsers that predate exemplars — see
// DESIGN.md §15.
func (s *EvalServer) writeLatencyMetrics(w io.Writer) {
	hist := s.reqHist.Snapshot()
	if hist.Count > 0 {
		fmt.Fprintf(w, "# HELP poseidon_serve_request_duration_seconds End-to-end request latency (exemplar trace IDs attached below).\n")
		fmt.Fprintf(w, "# TYPE poseidon_serve_request_duration_seconds summary\n")
		for _, q := range []float64{0.5, 0.95, 0.99} {
			fmt.Fprintf(w, "poseidon_serve_request_duration_seconds{quantile=\"%g\"} %g\n", q, hist.Quantile(q)/1e9)
		}
		fmt.Fprintf(w, "poseidon_serve_request_duration_seconds_sum %g\n", float64(hist.SumNs)/1e9)
		fmt.Fprintf(w, "poseidon_serve_request_duration_seconds_count %d\n", hist.Count)
		for _, ex := range s.tracer.Recorder.Exemplars() {
			fmt.Fprintf(w, "# EXEMPLAR poseidon_serve_request_duration_seconds_count {trace_id=%q,kind=%q} %g %.3f\n",
				ex.TraceID, ex.Kind, float64(ex.DurNs)/1e9, float64(ex.TimeNs)/1e9)
		}
	}
	st := s.tracer.Recorder.Stats()
	fmt.Fprintf(w, "# HELP poseidon_trace_offered_total Completed request traces offered to the flight recorder.\n")
	fmt.Fprintf(w, "# TYPE poseidon_trace_offered_total counter\n")
	fmt.Fprintf(w, "poseidon_trace_offered_total %d\n", st.Total)
	fmt.Fprintf(w, "# HELP poseidon_trace_kept_total Traces retained by tail-sampling, by reason.\n")
	fmt.Fprintf(w, "# TYPE poseidon_trace_kept_total counter\n")
	fmt.Fprintf(w, "poseidon_trace_kept_total{reason=\"error\"} %d\n", st.KeptError)
	fmt.Fprintf(w, "poseidon_trace_kept_total{reason=\"slow\"} %d\n", st.KeptSlow)
	fmt.Fprintf(w, "poseidon_trace_kept_total{reason=\"sampled\"} %d\n", st.KeptSampled)
	fmt.Fprintf(w, "# HELP poseidon_trace_dropped_total Traces not retained by tail-sampling.\n")
	fmt.Fprintf(w, "# TYPE poseidon_trace_dropped_total counter\n")
	fmt.Fprintf(w, "poseidon_trace_dropped_total %d\n", st.Dropped)
	fmt.Fprintf(w, "# HELP poseidon_trace_slow_threshold_seconds Current slowest-percentile retention threshold.\n")
	fmt.Fprintf(w, "# TYPE poseidon_trace_slow_threshold_seconds gauge\n")
	fmt.Fprintf(w, "poseidon_trace_slow_threshold_seconds %g\n", time.Duration(st.SlowThresholdNs).Seconds())
}

// traceFromRequest resolves the request's trace context: parse the
// X-Poseidon-Trace header when present, mint a context when absent. The
// trace ID is echoed on the response either way so a caller can always
// join its request to the flight recorder.
func traceFromRequest(h http.Header) (tracing.Context, error) {
	if v := h.Get(tracing.Header); v != "" {
		tc, err := tracing.ParseHeader(v)
		if err != nil {
			return tracing.Context{}, badf("%s: %v", tracing.Header, err)
		}
		return tc, nil
	}
	return tracing.NewContext(), nil
}

package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
)

// Prometheus text exposition (version 0.0.4). Metric families:
//
//	poseidon_op_total{workload,op,limbs}                     counter
//	poseidon_op_latency_seconds{workload,op,limbs,quantile}  summary
//	poseidon_op_latency_seconds_sum/_count{workload,op,limbs}
//	poseidon_op_errors_total{workload,op}                    counter
//	poseidon_unknown_ops_total{workload}                     counter
//	poseidon_uptime_seconds{workload}                        gauge
//
// Cardinality budget: op has at most 11 values (the trace kinds), limbs at
// most MaxLimbs+1 but in practice the modulus-chain depth (≤ ~45 on paper
// parameters), so the op families stay under a few hundred series per
// workload — see DESIGN.md §10.

// WritePrometheus renders the snapshot in Prometheus text format.
func (s *Snapshot) WritePrometheus(w io.Writer) {
	fmt.Fprintf(w, "# HELP poseidon_op_total FHE basic operations executed, by kind and active limb count.\n")
	fmt.Fprintf(w, "# TYPE poseidon_op_total counter\n")
	for _, ks := range s.Keys {
		fmt.Fprintf(w, "poseidon_op_total{workload=%q,op=%q,limbs=\"%d\"} %d\n",
			s.Workload, ks.Op, ks.Limbs, ks.Count)
	}

	fmt.Fprintf(w, "# HELP poseidon_op_latency_seconds Measured wall time per FHE basic operation.\n")
	fmt.Fprintf(w, "# TYPE poseidon_op_latency_seconds summary\n")
	for _, ks := range s.Keys {
		if ks.Count == 0 {
			continue
		}
		for _, q := range []struct {
			q  string
			ns float64
		}{{"0.5", ks.P50Ns}, {"0.95", ks.P95Ns}, {"0.99", ks.P99Ns}, {"1", float64(ks.MaxNs)}} {
			fmt.Fprintf(w, "poseidon_op_latency_seconds{workload=%q,op=%q,limbs=\"%d\",quantile=%q} %g\n",
				s.Workload, ks.Op, ks.Limbs, q.q, q.ns/1e9)
		}
		fmt.Fprintf(w, "poseidon_op_latency_seconds_sum{workload=%q,op=%q,limbs=\"%d\"} %g\n",
			s.Workload, ks.Op, ks.Limbs, float64(ks.SumNs)/1e9)
		fmt.Fprintf(w, "poseidon_op_latency_seconds_count{workload=%q,op=%q,limbs=\"%d\"} %d\n",
			s.Workload, ks.Op, ks.Limbs, ks.Count)
	}

	if len(s.Errors) > 0 {
		fmt.Fprintf(w, "# HELP poseidon_op_errors_total Failed Try* operations by op name.\n")
		fmt.Fprintf(w, "# TYPE poseidon_op_errors_total counter\n")
		names := make([]string, 0, len(s.Errors))
		for name := range s.Errors {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "poseidon_op_errors_total{workload=%q,op=%q} %d\n", s.Workload, name, s.Errors[name])
		}
	}

	if r := s.Recovery; r != nil {
		fmt.Fprintf(w, "# HELP poseidon_recovery_attempts_total Op re-executions performed by the recovery layer.\n")
		fmt.Fprintf(w, "# TYPE poseidon_recovery_attempts_total counter\n")
		fmt.Fprintf(w, "poseidon_recovery_attempts_total{workload=%q} %d\n", s.Workload, r.Attempts)
		fmt.Fprintf(w, "# HELP poseidon_recovery_recovered_total Ops that succeeded after at least one re-execution.\n")
		fmt.Fprintf(w, "# TYPE poseidon_recovery_recovered_total counter\n")
		fmt.Fprintf(w, "poseidon_recovery_recovered_total{workload=%q} %d\n", s.Workload, r.Recovered)
		fmt.Fprintf(w, "# HELP poseidon_recovery_unrecoverable_total Ops re-executed at least once that still failed.\n")
		fmt.Fprintf(w, "# TYPE poseidon_recovery_unrecoverable_total counter\n")
		fmt.Fprintf(w, "poseidon_recovery_unrecoverable_total{workload=%q} %d\n", s.Workload, r.Unrecoverable)
		fmt.Fprintf(w, "# HELP poseidon_recovery_latency_seconds Wall time from first integrity failure to recovered result.\n")
		fmt.Fprintf(w, "# TYPE poseidon_recovery_latency_seconds summary\n")
		for _, q := range []struct {
			q  string
			ns float64
		}{{"0.5", r.P50Ns}, {"0.95", r.P95Ns}, {"0.99", r.P99Ns}, {"1", float64(r.MaxNs)}} {
			fmt.Fprintf(w, "poseidon_recovery_latency_seconds{workload=%q,quantile=%q} %g\n", s.Workload, q.q, q.ns/1e9)
		}
	}

	fmt.Fprintf(w, "# HELP poseidon_unknown_ops_total Observations dropped for an op name outside the trace kind set.\n")
	fmt.Fprintf(w, "# TYPE poseidon_unknown_ops_total counter\n")
	fmt.Fprintf(w, "poseidon_unknown_ops_total{workload=%q} %d\n", s.Workload, s.UnknownOps)

	fmt.Fprintf(w, "# HELP poseidon_uptime_seconds Seconds since the collector was created.\n")
	fmt.Fprintf(w, "# TYPE poseidon_uptime_seconds gauge\n")
	fmt.Fprintf(w, "poseidon_uptime_seconds{workload=%q} %g\n", s.Workload, s.UptimeSec)
}

// RegisterAux attaches an auxiliary metric writer that runs after the
// collector's own families on every /metrics scrape — how subsystems that
// track state the collector does not (the serving layer's scheduler gauges,
// request-latency summaries) ride the same endpoint. Writers must emit
// complete Prometheus text families and must not block indefinitely.
func (c *Collector) RegisterAux(write func(io.Writer)) {
	c.auxMu.Lock()
	c.aux = append(c.aux, write)
	c.auxMu.Unlock()
}

// MetricsHandler serves the collector in Prometheus text format — mount it
// at /metrics. Auxiliary writers registered with RegisterAux are appended
// to every scrape.
func (c *Collector) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		c.Snapshot().WritePrometheus(w)
		c.auxMu.Lock()
		aux := append(make([]func(io.Writer), 0, len(c.aux)), c.aux...)
		c.auxMu.Unlock()
		for _, write := range aux {
			write(w)
		}
	})
}

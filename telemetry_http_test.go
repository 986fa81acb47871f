package poseidon

import (
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
)

// Running the integration workload under telemetry and scraping the live
// /metrics endpoint must surface a latency histogram for every basic-op
// kind the workload executes — the end-to-end contract of the telemetry
// layer: evaluator spans → collector → Prometheus exposition over HTTP.
func TestMetricsEndpointServesWorkloadOps(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 700)
	collector := kit.EnableTelemetry("integration")
	if kit.Metrics() != collector {
		t.Fatal("Metrics() must return the installed collector")
	}
	if again := kit.EnableTelemetry("other"); again != collector {
		t.Fatal("double EnableTelemetry must return the existing collector")
	}

	// The integration workload: EvalPoly 2x²−x (PMult, CMult, Rescale,
	// HAdd/HAddPlain), an 8-wide InnerSum (Rotation + HAdd) and a
	// conjugation (Rotation).
	ct := kit.EncryptReals([]float64{0.25, -1.5, 2.0, 0.75})
	_ = kit.Eval.EvalPoly(ct, []float64{0, -1, 2})
	vals := kit.EncryptValues([]complex128{1, 2i, 3, 4i, 5, 6i, 7, 8i})
	sum := kit.InnerSum(vals, 8)
	_ = kit.Eval.Conjugate(sum)

	srv, err := StartMetricsServer("127.0.0.1:0", collector)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	// Every kind the workload executed must serve a non-empty summary.
	for _, op := range []string{"HAdd", "PMult", "CMult", "Rescale", "Rotation"} {
		re := regexp.MustCompile(
			`poseidon_op_latency_seconds_count\{workload="integration",op="` + op + `",limbs="\d+"\} ([1-9]\d*)`)
		if !re.MatchString(body) {
			t.Errorf("/metrics has no %s latency samples:\n%s", op, body)
		}
		if !strings.Contains(body, `op="`+op+`",limbs=`) ||
			!strings.Contains(body, `quantile="0.99"`) {
			t.Errorf("/metrics missing %s quantile series", op)
		}
	}

	// The scrape must agree with the collector's own snapshot.
	snap := collector.Snapshot()
	if len(snap.Keys) == 0 {
		t.Fatal("collector snapshot is empty after the workload")
	}
	for _, ks := range snap.Keys {
		if ks.Count > 0 && !strings.Contains(body, `op="`+ks.Op+`"`) {
			t.Errorf("collector has %s but /metrics does not", ks.Op)
		}
	}

	// Disabling restores the pre-telemetry observer and stops collection.
	kit.DisableTelemetry()
	if kit.Metrics() != nil {
		t.Fatal("Metrics() must be nil after DisableTelemetry")
	}
	before := len(collector.Snapshot().Keys)
	_ = kit.Eval.Add(ct, ct)
	if after := len(collector.Snapshot().Keys); after != before {
		t.Error("detached collector still receiving observations")
	}
}

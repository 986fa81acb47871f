package telemetry

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"poseidon/internal/arch"
	"poseidon/internal/ckks"
	"poseidon/internal/trace"
)

// op is a successful basic op's event.
func op(name string, level int, dur time.Duration) trace.OpEvent {
	return trace.OpEvent{Op: name, Level: level, Dur: dur}
}

func TestCollectorObserve(t *testing.T) {
	c := NewCollector("unit")
	c.ObserveOp(op("CMult", 5, 100*time.Microsecond))
	c.ObserveOp(op("CMult", 5, 200*time.Microsecond))
	c.ObserveOp(op("Rescale", 5, 50*time.Microsecond))
	c.ObserveOp(op("NoSuchOp", 3, time.Microsecond))
	c.ObserveOp(trace.OpEvent{Op: "HAdd", Level: 3, Err: errors.New("boom")})
	c.ObserveOp(trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: 5, Dur: time.Millisecond})
	c.ObserveOp(trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: 5, Dur: time.Millisecond})
	// One recovered op, one that exhausted its budget, and one the evaluator
	// reports only because it was retried: all three are recovery outcomes,
	// the first two are also an op and an error.
	c.ObserveOp(trace.OpEvent{Op: "HAdd", Level: 3, Dur: 5 * time.Microsecond, Retries: 1, Recovery: 3 * time.Microsecond})
	c.ObserveOp(trace.OpEvent{Op: "PMult", Level: 3, Err: errors.New("sticky"), Retries: 2, Recovery: time.Microsecond})
	c.ObserveOp(trace.OpEvent{Op: "HNeg", Level: 3, Retries: 1, Recovery: time.Microsecond, Unpriced: true})

	snap := c.Snapshot()
	if snap.Workload != "unit" {
		t.Fatalf("workload = %q", snap.Workload)
	}
	if snap.UnknownOps != 1 {
		t.Fatalf("UnknownOps = %d, want 1", snap.UnknownOps)
	}
	if snap.Errors["HAdd"] != 1 || snap.Errors["PMult"] != 1 || len(snap.Errors) != 2 {
		t.Fatalf("Errors = %v, want HAdd:1 PMult:1", snap.Errors)
	}
	if ps := snap.Phases["LinTrans/giant"]; ps.Count != 2 || ps.SumNs != uint64(2*time.Millisecond) || len(snap.Phases) != 1 {
		t.Fatalf("Phases = %v, want LinTrans/giant twice", snap.Phases)
	}
	if r := snap.Recovery; r == nil || r.Attempts != 4 || r.Recovered != 2 || r.Unrecoverable != 1 || r.MaxNs != uint64(3*time.Microsecond) {
		t.Fatalf("Recovery = %+v, want 4 attempts, 2 recovered (≤ 3µs), 1 unrecoverable", r)
	}
	byKey := map[string]KeyStat{}
	for _, ks := range snap.Keys {
		byKey[ks.Op] = ks
	}
	cm := byKey["CMult"]
	if cm.Count != 2 || cm.Limbs != 6 {
		t.Fatalf("CMult stat = %+v", cm)
	}
	if cm.SumNs != uint64(300*time.Microsecond) {
		t.Fatalf("CMult SumNs = %d", cm.SumNs)
	}
	if ha := byKey["HAdd"]; ha.Count != 1 || ha.SumNs != uint64(5*time.Microsecond) {
		t.Fatalf("HAdd stat = %+v: the failed one must not add a sample, the recovered one must", ha)
	}
	if len(snap.Keys) != 3 {
		t.Fatalf("keys = %+v, want CMult, Rescale, HAdd: phases, failures and unpriced reports are not ops", snap.Keys)
	}
}

// The recovery rule is "re-executed at least once and still failed", not
// "exhausted the integrity budget": a retry that dies of something else — an
// injected panic surfacing as ErrInternal — is unrecoverable too.
func TestRecoveryUnrecoverableAnyFinalError(t *testing.T) {
	c := NewCollector("unit")
	c.ObserveOp(trace.OpEvent{Op: "PMult", Level: 3, Retries: 1, Recovery: time.Microsecond,
		Err: &ckks.OpError{Op: "PMult", Level: 3, Err: ckks.ErrInternal}})
	if r := c.Snapshot().Recovery; r == nil || r.Attempts != 1 || r.Recovered != 0 || r.Unrecoverable != 1 {
		t.Fatalf("Recovery = %+v, want 1 attempt, 0 recovered, 1 unrecoverable", r)
	}
}

func TestCollectorByKind(t *testing.T) {
	c := NewCollector("unit")
	c.ObserveOp(op("Rotation", 3, time.Millisecond))
	c.ObserveOp(op("Rotation", 7, 3*time.Millisecond))
	agg := c.Snapshot().ByKind()
	rot, ok := agg[trace.Rotation]
	if !ok {
		t.Fatalf("no Rotation aggregate; got %v", agg)
	}
	if rot.Count != 2 || rot.SumNs != uint64(4*time.Millisecond) {
		t.Fatalf("Rotation aggregate = %+v", rot)
	}
	if rot.MaxNs != uint64(3*time.Millisecond) {
		t.Fatalf("Rotation MaxNs = %d", rot.MaxNs)
	}
}

func TestLimbClamp(t *testing.T) {
	c := NewCollector("unit")
	c.ObserveOp(op("HAdd", MaxLimbs+100, time.Microsecond)) // clamps high
	c.ObserveOp(op("HAdd", -5, time.Microsecond))           // clamps low
	snap := c.Snapshot()
	if len(snap.Keys) != 2 {
		t.Fatalf("keys = %+v, want clamped 0 and MaxLimbs rows", snap.Keys)
	}
	if snap.Keys[0].Limbs != 0 || snap.Keys[1].Limbs != MaxLimbs {
		t.Fatalf("clamped limbs = %d, %d", snap.Keys[0].Limbs, snap.Keys[1].Limbs)
	}
}

func TestWritePrometheus(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveOp(op("CMult", 5, time.Millisecond))
	c.ObserveOp(op("BadName", 1, time.Microsecond))
	var buf bytes.Buffer
	c.Snapshot().WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`poseidon_op_total{workload="wl",op="CMult",limbs="6"} 1`,
		`poseidon_op_latency_seconds{workload="wl",op="CMult",limbs="6",quantile="1"} 0.001`,
		`poseidon_op_latency_seconds_count{workload="wl",op="CMult",limbs="6"} 1`,
		`poseidon_unknown_ops_total{workload="wl"} 1`,
		"# TYPE poseidon_op_latency_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsFamilies pins the families /metrics serves once every branch of
// the collector has seen traffic — the list read off the endpoint before the
// three observer entry points became ObserveOp.
func TestMetricsFamilies(t *testing.T) {
	c := NewCollector("wl")
	c.ObserveOp(op("CMult", 5, time.Millisecond))
	c.ObserveOp(trace.OpEvent{Op: "Rescale", Err: errors.New("level 0")})
	c.ObserveOp(trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: 5, Dur: time.Millisecond})
	c.ObserveOp(trace.OpEvent{Op: "HAdd", Level: 5, Dur: time.Millisecond, Retries: 1, Recovery: time.Microsecond})
	rr := httptest.NewRecorder()
	c.MetricsHandler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var got []string
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			got = append(got, f[2]+" "+f[3])
		}
	}
	sort.Strings(got)
	want := []string{
		"poseidon_op_errors_total counter",
		"poseidon_op_latency_seconds summary",
		"poseidon_op_total counter",
		"poseidon_recovery_attempts_total counter",
		"poseidon_recovery_latency_seconds summary",
		"poseidon_recovery_recovered_total counter",
		"poseidon_recovery_unrecoverable_total counter",
		"poseidon_unknown_ops_total counter",
		"poseidon_uptime_seconds gauge",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("/metrics families:\n got %q\nwant %q", got, want)
	}
}

func TestCalibrate(t *testing.T) {
	model, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCollector("calib")
	// Measured = 2× modeled for CMult, exactly modeled for Rescale.
	cmModeled := model.Latency(model.ProfileFor(trace.CMult, 6))
	rsModeled := model.Latency(model.ProfileFor(trace.Rescale, 6))
	c.ObserveOp(op("CMult", 5, time.Duration(2*cmModeled*1e9)))
	c.ObserveOp(op("Rescale", 5, time.Duration(rsModeled*1e9)))

	cs := Calibrate(c.Snapshot(), model)
	if cs.Workload != "calib" {
		t.Fatalf("workload = %q", cs.Workload)
	}
	if len(cs.PerKind) != 2 {
		t.Fatalf("PerKind = %+v, want 2 kinds", cs.PerKind)
	}
	byName := map[string]KindCalib{}
	for _, kc := range cs.PerKind {
		byName[kc.Name] = kc
	}
	cm := byName["CMult"]
	if cm.Count != 1 || cm.ModeledSec == 0 {
		t.Fatalf("CMult calib = %+v", cm)
	}
	// time.Duration truncation costs sub-ns precision; 1% slack is plenty.
	if cm.Ratio < 1.98 || cm.Ratio > 2.02 {
		t.Fatalf("CMult ratio = %g, want ~2", cm.Ratio)
	}
	rs := byName["Rescale"]
	if rs.Ratio < 0.99 || rs.Ratio > 1.01 {
		t.Fatalf("Rescale ratio = %g, want ~1", rs.Ratio)
	}
	if cs.MinRatio > cs.GeomeanRatio || cs.GeomeanRatio > cs.MaxRatio {
		t.Fatalf("drift summary out of order: min %g geomean %g max %g",
			cs.MinRatio, cs.GeomeanRatio, cs.MaxRatio)
	}
}

func TestCalibrateEmpty(t *testing.T) {
	model, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	cs := Calibrate(NewCollector("empty").Snapshot(), model)
	if len(cs.PerKind) != 0 || cs.GeomeanRatio != 0 || cs.MinRatio != 0 || cs.MaxRatio != 0 {
		t.Fatalf("empty calibration = %+v", cs)
	}
}

func TestServerEndpoints(t *testing.T) {
	c := NewCollector("http")
	c.ObserveOp(op("HAdd", 2, time.Microsecond))
	srv, err := StartServer("127.0.0.1:0", c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, `poseidon_op_total{workload="http",op="HAdd",limbs="3"} 1`) {
		t.Fatalf("/metrics missing HAdd series:\n%s", body)
	}

	idx, _ := get("/debug/pprof/")
	if !strings.Contains(idx, "goroutine") {
		t.Fatalf("/debug/pprof/ missing profile index")
	}
}

func TestRecordPathZeroAlloc(t *testing.T) {
	c := NewCollector("alloc")
	phase := trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: 5, Dur: time.Microsecond}
	// AllocsPerRun's warm-up run materializes the histogram and the phase row.
	allocs := testing.AllocsPerRun(1000, func() {
		c.ObserveOp(op("CMult", 5, time.Microsecond))
		c.ObserveOp(phase)
	})
	if allocs != 0 {
		t.Fatalf("ObserveOp allocates %g allocs/op after warm-up, want 0", allocs)
	}
}

package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/tracing"
)

// The tracing soak: 32 tenants hammer a traced EvalServer concurrently and
// every retained span tree must account for ≥95% of its request's
// wall-clock — the property that makes a trace trustworthy for latency
// attribution. A tree below that bound means some stage ran untraced
// (a gap between spans), which is exactly the blind spot tracing exists
// to eliminate. Sampling keeps every request so the bound is checked on
// the whole population, not a lucky subset.
func TestTraceSoakCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		tenants       = 32
		reqsPerTenant = 24 // 32 × 24 = 768 traced requests
		minCoverage   = 0.95
	)
	params := newServeParams(t, 2)
	tracer := &tracing.Tracer{Recorder: tracing.NewFlightRecorder(2048, 1, 0.95)}
	srv, err := NewEvalServer(Config{
		Params:      params,
		MaxBatch:    8,
		QueueDepth:  256,
		RegistryCap: tenants + 1,
		GuardSeed:   0xB0A7,
		Tracer:      tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	fixtures := make([]*testTenant, tenants)
	for i := range fixtures {
		fixtures[i] = newTestTenant(t, params, fmt.Sprintf("trace-%02d", i), int64(4000+i*13), []int{1, 2, 4}, true)
		fixtures[i].upload(t, srv)
	}

	var validated atomic.Uint64
	var wg sync.WaitGroup
	for ti := range fixtures {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			tt := fixtures[ti]
			rng := rand.New(rand.NewSource(int64(7000 + ti)))
			ops := []Op{OpAdd, OpSub, OpMulRelin, OpRotate, OpInnerSum}
			for r := 0; r < reqsPerTenant; r++ {
				op := ops[rng.Intn(len(ops))]
				a := randomVec(rng, params.Slots)
				var b []complex128
				req := &EvalRequest{Tenant: tt.name, Op: op, Ct: tt.encryptBytes(t, a)}
				switch {
				case op.twoOperand():
					b = randomVec(rng, params.Slots)
					req.Ct2 = tt.encryptBytes(t, b)
				case op == OpRotate:
					req.Steps = []int{1, 2, 4}[rng.Intn(3)]
				case op == OpInnerSum:
					req.Width = []int{2, 4, 8}[rng.Intn(3)]
				}
				for {
					ct, _, err := srv.Eval(req)
					if errors.Is(err, ErrOverloaded) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("%s: req %d (%s): %v", tt.name, r, op, err)
						return
					}
					tol := 1e-4
					if op == OpMulRelin || op == OpInnerSum {
						tol = 1e-3
					}
					if e := maxErr(tt.decrypt(ct), expected(op, a, b, req.Steps, req.Width)); e > tol {
						t.Errorf("%s: req %d %s: decrypt mismatch %g > %g", tt.name, r, op, e, tol)
						return
					}
					validated.Add(1)
					break
				}
			}
		}(ti)
	}
	wg.Wait()

	traces := tracer.Recorder.Snapshot()
	total := int(validated.Load())
	if len(traces) != total {
		t.Fatalf("recorder retained %d traces, want all %d (sample_every=1)", len(traces), total)
	}
	// The bound is relative for requests long enough that 5% exceeds the
	// tree's fixed bookkeeping cost. A microseconds-scale request (empty
	// queue, tiny batch) can leave span-boundary bookkeeping unattributed,
	// and on a saturated box the Go scheduler occasionally preempts the
	// requester goroutine inside one of those few-instruction windows,
	// charging a requeue wait (tens of µs here) to no span — a constant
	// noise floor, not a missing stage. Short requests therefore get an
	// absolute cap on unaccounted time instead: ~10× the worst gap
	// observed across thousands of traces, and far below any real stage.
	const maxGapNs = 1_000_000
	var worst float64 = 1
	var below int
	for _, f := range traces {
		cov := f.Coverage()
		if cov < worst {
			worst = cov
		}
		gap := float64(f.DurNs) * (1 - cov)
		if cov < minCoverage && gap > maxGapNs {
			below++
			if below <= 3 {
				t.Errorf("trace %s (%s, %v): span tree covers %.1f%% of wall-clock (%.0fµs unaccounted), want ≥%.0f%%: %+v",
					f.TraceID, f.Name, time.Duration(f.DurNs), 100*cov, gap/1e3, 100*minCoverage, f.Spans)
			}
		}
		if f.Status != 200 {
			t.Errorf("trace %s finished with status %d in an all-success soak", f.TraceID, f.Status)
		}
	}
	if below > 0 {
		t.Fatalf("%d/%d span trees below %.0f%% coverage with >%dµs unaccounted (worst %.1f%%)",
			below, total, 100*minCoverage, maxGapNs/1000, 100*worst)
	}
	t.Logf("%d traces retained, worst coverage %.1f%%", total, 100*worst)
}

// Op spans land on the request that caused them while two lanes evaluate at
// once — for one tenant, whose two lanes therefore run views of the same
// evaluator. Content, not clock: every request's trace must hold exactly the
// op span its own operation emits (an add never shows a Rotation, and none
// goes missing to a neighbour), inside its exec stage. A shared observer
// would pass -race — its slot is atomic — and fail here.
func TestTraceOpSpansStayOnTheirLane(t *testing.T) {
	const perOp = 150
	params := newServeParams(t, 2)
	tracer := &tracing.Tracer{Recorder: tracing.NewFlightRecorder(1024, 1, 0.95)}
	srv, err := NewEvalServer(Config{Params: params, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tt := newTestTenant(t, params, "solo", 51, []int{1}, false)
	tt.upload(t, srv)
	rng := rand.New(rand.NewSource(52))
	a, b := tt.encryptBytes(t, randomVec(rng, params.Slots)), tt.encryptBytes(t, randomVec(rng, params.Slots))

	wantSpan := map[string]string{"add": "HAdd", "rotate": "Rotation"}
	var wg sync.WaitGroup
	for _, req := range []*EvalRequest{
		{Tenant: "solo", Op: OpAdd, Ct: a, Ct2: b},
		{Tenant: "solo", Op: OpRotate, Steps: 1, Ct: a},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perOp; i++ {
				if _, _, err := srv.Eval(req); err != nil {
					t.Errorf("%s %d: %v", req.Op, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()

	traces := tracer.Recorder.Snapshot()
	if len(traces) != 2*perOp {
		t.Fatalf("recorder retained %d traces, want all %d", len(traces), 2*perOp)
	}
	for _, f := range traces {
		var op string
		for _, a := range f.Spans[0].Attrs {
			if a.Key == "op" {
				op = a.Value
			}
		}
		var exec *tracing.Span
		var opSpans []tracing.Span
		for i, sp := range f.Spans {
			switch {
			case sp.Name == "exec" && sp.Parent == 1:
				exec = &f.Spans[i]
			case sp.Limbs > 0:
				opSpans = append(opSpans, sp)
			}
		}
		if exec == nil {
			t.Fatalf("trace %s (%s): no exec stage: %+v", f.TraceID, op, f.Spans)
		}
		if len(opSpans) != 1 || opSpans[0].Name != wantSpan[op] || opSpans[0].Parent != exec.Ref {
			t.Fatalf("trace %s: a %s request holds op spans %+v, want one %s under its exec stage",
				f.TraceID, op, opSpans, wantSpan[op])
		}
		if opSpans[0].DurNs > exec.DurNs {
			t.Fatalf("trace %s (%s): op span of %d ns inside an exec stage of %d ns", f.TraceID, op, opSpans[0].DurNs, exec.DurNs)
		}
	}
}

// Tail-sampling contract over HTTP: with an aggressive sample rate that
// discards almost every healthy request, every errored and every
// deadline-exceeded request must still be retained, findable by the exact
// trace ID the client sent, and the response must echo that ID back.
func TestTraceTailSamplingKeepsFailures(t *testing.T) {
	params := newServeParams(t, 1)
	tracer := &tracing.Tracer{Recorder: tracing.NewFlightRecorder(256, 1000, 0.95)}
	_, hs, cli := newHTTPFixture(t, Config{Params: params, Tracer: tracer})
	tt := newTestTenant(t, params, "tail", 31, []int{1}, false)
	kgenUpload(t, cli, tt)
	rng := rand.New(rand.NewSource(17))
	ctBytes := tt.encryptBytes(t, randomVec(rng, params.Slots))

	post := func(traceID string, deadline string, body []byte) *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/eval", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(tracing.Header, traceID)
		if deadline != "" {
			req.Header.Set("X-Poseidon-Deadline", deadline)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Failure population: unknown tenant (404), rotation without the key
	// (422), and a deadline no evaluation can meet (504).
	fail := map[string]int{
		"00000000000000000000000000000404": http.StatusNotFound,
		"00000000000000000000000000000422": http.StatusUnprocessableEntity,
		"00000000000000000000000000000504": http.StatusGatewayTimeout,
	}
	for id, want := range fail {
		var resp *http.Response
		switch want {
		case http.StatusNotFound:
			resp = post(id, "", EncodeEvalRequest(&EvalRequest{Tenant: "ghost", Op: OpAdd, Ct: ctBytes, Ct2: ctBytes}))
		case http.StatusUnprocessableEntity:
			resp = post(id, "", EncodeEvalRequest(&EvalRequest{Tenant: "tail", Op: OpRotate, Steps: 3, Ct: ctBytes}))
		case http.StatusGatewayTimeout:
			resp = post(id, "1ns", EncodeEvalRequest(&EvalRequest{Tenant: "tail", Op: OpAdd, Ct: ctBytes, Ct2: ctBytes}))
		}
		if resp.StatusCode != want {
			t.Fatalf("trace %s: status %d, want %d", id, resp.StatusCode, want)
		}
		if got := resp.Header.Get(tracing.Header); got != id {
			t.Fatalf("trace %s: response echoed %q", id, got)
		}
	}
	// Healthy chaff around the failures: at 1/1000 sampling, effectively
	// none of these are kept — the point is that the failures above must
	// survive anyway.
	okBody := EncodeEvalRequest(&EvalRequest{Tenant: "tail", Op: OpRotate, Steps: 1, Ct: ctBytes})
	for i := 0; i < 50; i++ {
		if resp := post("", "", okBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy request %d: status %d", i, resp.StatusCode)
		}
	}

	for id, want := range fail {
		f := tracer.Recorder.Find(id)
		if f == nil {
			t.Fatalf("errored trace %s (status %d) not retained by tail-sampling", id, want)
		}
		if f.Status != want {
			t.Errorf("trace %s: recorded status %d, want %d", id, f.Status, want)
		}
		if f.Keep != "error" {
			t.Errorf("trace %s: keep reason %q, want \"error\"", id, f.Keep)
		}
		if f.Err == "" {
			t.Errorf("trace %s: retained without its error string", id)
		}
	}
	st := tracer.Recorder.Stats()
	if st.KeptError != uint64(len(fail)) {
		t.Errorf("kept_error = %d, want %d", st.KeptError, len(fail))
	}
}

// The client propagates a context-borne trace into the header, keeps it
// constant across its retry attempts, surfaces it in EvalMeta, and stamps
// it into returned errors; each backoff decision shows in what it asks the
// injected sleep for — here the server's Retry-After, not the jittered
// exponential (which could not exceed 2 ms).
func TestClientRetryCarriesTrace(t *testing.T) {
	var gotTraces []string
	var mu sync.Mutex
	fh := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		gotTraces = append(gotTraces, r.Header.Get(tracing.Header))
		mu.Unlock()
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
	})
	hs := httptest.NewServer(fh)
	defer hs.Close()

	var waits []time.Duration
	cli := &Client{
		Base:  hs.URL,
		HTTP:  hs.Client(),
		Retry: RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: time.Minute},
		sleep: func(ctx context.Context, d time.Duration) error { waits = append(waits, d); return nil },
	}
	_, meta, err := cli.Eval(&EvalRequest{Tenant: "x", Op: OpNegate, Ct: []byte{1}})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	if meta.Trace == "" || !strings.Contains(err.Error(), meta.Trace) {
		t.Fatalf("error %q not stamped with trace %q", err, meta.Trace)
	}
	if !slices.Equal(waits, []time.Duration{time.Second, time.Second}) {
		t.Fatalf("backoff waits %v, want the Retry-After second before each of 2 retries (3 attempts)", waits)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(gotTraces) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(gotTraces))
	}
	for i, id := range gotTraces {
		if id != meta.Trace {
			t.Errorf("attempt %d carried trace %q, want %q", i+1, id, meta.Trace)
		}
	}
}

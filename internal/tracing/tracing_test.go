package tracing

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"poseidon/internal/trace"
)

func TestHeaderRoundTrip(t *testing.T) {
	tc := NewContext()
	if !tc.Valid() {
		t.Fatal("NewContext produced an invalid context")
	}
	h := tc.Header()
	if len(h) != 32 {
		t.Fatalf("bare header length = %d, want 32: %q", len(h), h)
	}
	got, err := ParseHeader(h)
	if err != nil {
		t.Fatalf("ParseHeader(%q): %v", h, err)
	}
	if got != tc {
		t.Fatalf("round trip: got %+v want %+v", got, tc)
	}

	tc.Span = 0xdeadbeef
	h = tc.Header()
	if len(h) != 49 {
		t.Fatalf("spanned header length = %d, want 49: %q", len(h), h)
	}
	got, err = ParseHeader(h)
	if err != nil || got != tc {
		t.Fatalf("spanned round trip: got %+v, %v; want %+v", got, err, tc)
	}

	// Uppercase hex is accepted.
	if _, err := ParseHeader(strings.ToUpper(tc.Trace.String())); err != nil {
		t.Fatalf("uppercase: %v", err)
	}

	for _, bad := range []string{"", "xyz", strings.Repeat("0", 32), strings.Repeat("g", 32),
		strings.Repeat("a", 31), strings.Repeat("a", 33), strings.Repeat("a", 32) + "_" + strings.Repeat("b", 16)} {
		if _, err := ParseHeader(bad); err == nil {
			t.Errorf("ParseHeader(%q) accepted malformed input", bad)
		}
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		id := NewContext().Trace.String()
		if seen[id] {
			t.Fatalf("duplicate trace ID %s after %d draws", id, i)
		}
		seen[id] = true
	}
}

// scripted returns a trace on a clock that starts at 1 ms and advances by
// step nanoseconds at every reading — the root's start included — from any
// goroutine, so no assertion reads the wall clock.
func scripted(step int64) *RequestTrace {
	rt := NewRequest(NewContext(), "request")
	var clock atomic.Int64
	clock.Store(1_000_000 - step)
	rt.now = func() int64 { return clock.Add(step) }
	rt.spans[0].StartNs = rt.now()
	return rt
}

func TestNilTraceIsSafe(t *testing.T) {
	var rt *RequestTrace
	ref := rt.NextStage("x")
	if ref != 0 {
		t.Fatalf("nil NextStage ref = %d, want 0", ref)
	}
	rt.StageErr(errors.New("boom"))
	if ref := rt.AddSpan(0, "HAdd", 3, time.Millisecond, nil); ref != 0 {
		t.Fatalf("nil AddSpan ref = %d, want 0", ref)
	}
	rt.Annotate(ref, "k", "v")
	rt.AnnotateInt(ref, "k", 42)
	if f := rt.Finish(200, nil); f != nil {
		t.Fatal("nil Finish returned non-nil")
	}
	if id := rt.TraceID(); id != "" {
		t.Fatalf("nil TraceID = %q", id)
	}
	var tr *Tracer
	if tr.NewRequest(NewContext(), "r") != nil {
		t.Fatal("nil Tracer minted a trace")
	}
	tr.Offer(nil)
}

func TestSpanTree(t *testing.T) {
	rt := scripted(int64(2 * time.Millisecond))
	rt.Annotate(rt.Root(), "tenant", "t0")
	rt.NextStage("ingest")
	ex := rt.NextStage("exec")
	rt.AnnotateInt(ex, "batch", 4)
	rt.AddSpan(ex, "HAdd", 3, 500*time.Microsecond, nil)
	rt.AddSpan(ex, "LinTrans/hoist", 3, time.Millisecond, nil)
	rt.StageErr(errors.New("integrity"))
	f := rt.Finish(500, errors.New("integrity"))
	if f == nil {
		t.Fatal("Finish returned nil")
	}
	if n := len(f.Spans); n != 5 {
		t.Fatalf("span count = %d, want 5", n)
	}
	if f.Spans[0].Ref != 1 || f.Spans[0].Parent != 0 {
		t.Fatalf("root span malformed: %+v", f.Spans[0])
	}
	byName := map[string]Span{}
	for _, sp := range f.Spans {
		byName[sp.Name] = sp
	}
	if byName["HAdd"].Parent != byName["exec"].Ref {
		t.Fatal("op span not parented under exec")
	}
	if byName["HAdd"].Limbs != 3 {
		t.Fatalf("HAdd limbs = %d, want level+1 = 3", byName["HAdd"].Limbs)
	}
	if byName["exec"].Err != "integrity" {
		t.Fatalf("exec err = %q", byName["exec"].Err)
	}
	if attrs := f.Spans[0].Attrs; !slices.Contains(attrs, Attr{Key: "tenant", Value: "t0"}) {
		t.Fatalf("root attrs = %v, want tenant t0", attrs)
	}
	if f.Status != 500 || f.Err != "integrity" {
		t.Fatalf("finished status/err = %d/%q", f.Status, f.Err)
	}
	// Mutations after Finish are dropped.
	if ref := rt.AddSpan(0, "late", 0, time.Millisecond, nil); ref != 0 {
		t.Fatal("AddSpan after Finish returned a live ref")
	}
	if rt.Finish(200, nil) != nil {
		t.Fatal("double Finish returned non-nil")
	}
	if n := len(f.Spans); n != 5 {
		t.Fatalf("late span leaked into finished trace: %d spans", n)
	}
}

func TestFinishClosesOpenSpans(t *testing.T) {
	rt := scripted(int64(time.Millisecond))
	rt.NextStage("queue")
	f := rt.Finish(504, context.DeadlineExceeded)
	for _, sp := range f.Spans {
		if sp.DurNs < 0 {
			t.Fatalf("span %q left open after Finish", sp.Name)
		}
	}
}

func TestConcurrentSpans(t *testing.T) {
	rt := scripted(int64(10 * time.Microsecond))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ref := rt.NextStage("exec")
				rt.AnnotateInt(ref, "i", int64(i))
				rt.AddSpan(ref, "HAdd", 2, time.Microsecond, nil)
			}
		}()
	}
	wg.Wait()
	f := rt.Finish(200, nil)
	if len(f.Spans) != 1+8*200*2 {
		t.Fatalf("span count = %d, want %d", len(f.Spans), 1+8*200*2)
	}
}

func TestCoverage(t *testing.T) {
	rt := scripted(int64(4 * time.Millisecond))    // the root starts at 1 ms
	rt.AddSpan(0, "a", 0, 4*time.Millisecond, nil) // [1, 5] ms
	rt.AddSpan(0, "b", 0, 4*time.Millisecond, nil) // [5, 9] ms
	rt.now = func() int64 { return int64(9 * time.Millisecond) }
	f := rt.Finish(200, nil)
	if cov := f.Coverage(); cov < 0.9 || cov > 1 {
		t.Fatalf("coverage = %.3f, want ~1 (back-to-back children)", cov)
	}
}

// Stages tile the root by construction: under a scripted clock that jumps
// by arbitrary amounts between any two readings (a preempted goroutine, a
// stalled dispatcher), with transitions issued from several goroutines in
// hand-off order, op spans and annotations interleaved, a failed stage and a
// late transition after Finish, every stage still starts exactly where the
// previous one ended, the first starts with the root and the last ends with
// it — so Coverage is exactly 1 and no assertion here reads the wall clock.
func TestStagesTileRoot(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var clock int64 = 1_000_000
		rt := NewRequest(NewContext(), "eval")
		rt.now = func() int64 {
			clock += rng.Int63n(50_000_000) // up to 50 ms lost between any two readings
			return clock
		}
		rt.spans[0].StartNs = rt.now()

		names := []string{"ingest", "queue", "hoist", "exec", "backoff", "queue", "exec", "deliver", "finalize", "encode"}
		names = names[:2+rng.Intn(len(names)-1)]
		// Each transition runs on its own goroutine, handed off in order
		// like the caller → dispatcher → retry-timer → caller chain.
		for _, name := range names {
			done := make(chan struct{})
			go func() {
				defer close(done)
				ref := rt.NextStage(name)
				rt.AnnotateInt(ref, "batch", 4)
				rt.AddSpan(ref, "HAdd", 4, time.Microsecond, nil)
				if rng.Intn(4) == 0 {
					rt.StageErr(errors.New("integrity"))
				}
			}()
			<-done
		}
		f := rt.Finish(200, nil)
		if ref := rt.NextStage("late"); ref != 0 {
			t.Fatalf("seed %d: NextStage after Finish returned %d", seed, ref)
		}

		at := f.StartNs
		var stages int
		for _, sp := range f.Spans[1:] {
			if sp.Parent != 1 {
				continue
			}
			if sp.Name != names[stages] {
				t.Fatalf("seed %d: stage %d is %q, want %q", seed, stages, sp.Name, names[stages])
			}
			if sp.StartNs != at {
				t.Fatalf("seed %d: stage %q starts at %d, previous ended at %d", seed, sp.Name, sp.StartNs, at)
			}
			if sp.DurNs < 0 {
				t.Fatalf("seed %d: stage %q left open", seed, sp.Name)
			}
			at += sp.DurNs
			stages++
		}
		if stages != len(names) {
			t.Fatalf("seed %d: %d stages recorded, want %d", seed, stages, len(names))
		}
		end := f.StartNs + f.DurNs
		if at != end {
			t.Fatalf("seed %d: last stage ends at %d, root at %d", seed, at, end)
		}
		if cov := f.Coverage(); cov != 1 {
			t.Fatalf("seed %d: coverage %v, want exactly 1", seed, cov)
		}
		// Every span, op spans included, is stamped on the trace's one
		// clock, so it lies inside the root.
		for _, sp := range f.Spans[1:] {
			if sp.StartNs < f.StartNs || sp.StartNs+sp.DurNs > end {
				t.Fatalf("seed %d: span %q [%d, %d] outside root [%d, %d]",
					seed, sp.Name, sp.StartNs, sp.StartNs+sp.DurNs, f.StartNs, end)
			}
		}
	}
}

func finished(id TraceID, dur time.Duration, status int, err string) *Finished {
	return &Finished{
		TraceID: id.String(),
		Name:    "request",
		StartNs: time.Now().UnixNano(),
		DurNs:   int64(dur),
		Status:  status,
		Err:     err,
		Spans:   []Span{{Ref: 1, Name: "request", DurNs: int64(dur)}},
	}
}

func TestRecorderKeepsErrors(t *testing.T) {
	r := NewFlightRecorder(64, 1000000, 0.95) // sampling effectively off
	var errIDs []string
	for i := 0; i < 500; i++ {
		tc := NewContext()
		if i%50 == 7 {
			f := finished(tc.Trace, time.Millisecond, 504, "deadline")
			errIDs = append(errIDs, f.TraceID)
			r.Offer(f)
		} else {
			r.Offer(finished(tc.Trace, time.Millisecond, 200, ""))
		}
	}
	for _, id := range errIDs {
		f := r.Find(id)
		if f == nil {
			t.Fatalf("errored trace %s not retained", id)
		}
		if f.Keep != "error" {
			t.Fatalf("errored trace kept as %q", f.Keep)
		}
	}
	st := r.Stats()
	if st.KeptError != uint64(len(errIDs)) {
		t.Fatalf("kept_error = %d, want %d", st.KeptError, len(errIDs))
	}
	if st.Total != 500 {
		t.Fatalf("total = %d, want 500", st.Total)
	}
	exs := r.Exemplars()
	if len(exs) == 0 || exs[0].Kind != "error" {
		t.Fatalf("exemplars = %+v, want leading error exemplar", exs)
	}
}

func TestRecorderKeepsSlowTail(t *testing.T) {
	r := NewFlightRecorder(256, 1000000, 0.95)
	// Warm the histogram with a tight fast distribution, then offer a
	// 100x outlier: it must be retained as "slow".
	for i := 0; i < 400; i++ {
		r.Offer(finished(NewContext().Trace, time.Millisecond, 200, ""))
	}
	slow := finished(NewContext().Trace, 100*time.Millisecond, 200, "")
	if !r.Offer(slow) {
		t.Fatal("100x latency outlier dropped")
	}
	if slow.Keep != "slow" {
		t.Fatalf("outlier kept as %q, want slow", slow.Keep)
	}
	st := r.Stats()
	if st.SlowThresholdNs <= int64(time.Millisecond) || st.SlowThresholdNs > int64(100*time.Millisecond) {
		t.Fatalf("slow threshold = %v, want within (1ms, 100ms]", time.Duration(st.SlowThresholdNs))
	}
}

func TestRecorderSamplesRest(t *testing.T) {
	r := NewFlightRecorder(1024, 8, 0.95)
	for i := 0; i < 4000; i++ {
		r.Offer(finished(NewContext().Trace, time.Millisecond, 200, ""))
	}
	st := r.Stats()
	kept := st.KeptSampled
	if kept < 200 || kept > 1200 {
		t.Fatalf("sampled %d of 4000 at 1/8, want roughly 500", kept)
	}
	if st.Total != st.KeptError+st.KeptSlow+st.KeptSampled+st.Dropped {
		t.Fatalf("counter mismatch: %+v", st)
	}
}

func TestRecorderSnapshotNewestFirst(t *testing.T) {
	r := NewFlightRecorder(4, 1, 0.95)
	var last string
	for i := 0; i < 10; i++ {
		f := finished(NewContext().Trace, time.Millisecond, 200, "")
		r.Offer(f)
		last = f.TraceID
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot size = %d, want ring capacity 4", len(snap))
	}
	if snap[0].TraceID != last {
		t.Fatal("snapshot not newest-first")
	}
}

func TestEvalObserverAttachesToActiveScope(t *testing.T) {
	o := new(EvalObserver)
	hadd := trace.OpEvent{Op: "HAdd", Level: 1, Dur: time.Microsecond}

	// No scope: events fall through.
	o.ObserveOp(hadd)

	rt := NewRequest(NewContext(), "request")
	ex := rt.NextStage("exec")
	o.Activate(rt, ex)
	// A recovered op is its own span after a recovery span; a phase is named
	// "<op>/<phase>"; an unpriced report is only its recovery span.
	o.ObserveOp(trace.OpEvent{Op: "PMult", Level: 2, Dur: 4 * time.Millisecond, Retries: 2, Recovery: 3 * time.Millisecond})
	o.ObserveOp(trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: 2, Dur: time.Millisecond})
	o.ObserveOp(trace.OpEvent{Op: "HNeg", Level: 2, Err: errors.New("sticky"), Retries: 1, Recovery: time.Millisecond, Unpriced: true})
	o.Deactivate()
	o.ObserveOp(hadd) // after deactivate: dropped

	var got []string
	for _, sp := range rt.Finish(200, nil).Spans[2:] { // past the root and exec
		if sp.Parent != ex {
			t.Fatalf("span %q parent = %d, want exec %d", sp.Name, sp.Parent, ex)
		}
		name := sp.Name
		for _, a := range sp.Attrs {
			name += " " + a.Key + "=" + a.Value
		}
		got = append(got, name)
	}
	want := []string{
		"recovery op=PMult retries=2 outcome=recovered",
		"PMult",
		"LinTrans/giant",
		"recovery op=HNeg retries=1 outcome=unrecoverable",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("spans under exec:\n got %q\nwant %q", got, want)
	}
}

func TestChromeTraceExport(t *testing.T) {
	rt := NewRequest(NewContext(), "request")
	ex := rt.NextStage("exec")
	rt.AddSpan(ex, "Rescale", 3, time.Millisecond, nil)
	f := rt.Finish(200, nil)

	var buf strings.Builder
	if err := writeChromeTrace(&buf, []*Finished{f}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			complete++
			if ev.Name == "Rescale" {
				if lvl, ok := ev.Args["level"].(float64); !ok || lvl != 2 {
					t.Fatalf("Rescale level arg = %v", ev.Args["level"])
				}
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	if meta != 1 || complete != 3 {
		t.Fatalf("events meta=%d complete=%d, want 1/3", meta, complete)
	}
}

func TestDebugRequestsHandler(t *testing.T) {
	r := NewFlightRecorder(16, 1, 0.95)
	rt := NewRequest(NewContext(), "request")
	rt.Annotate(rt.Root(), "tenant", "acme<script>")
	ex := rt.NextStage("exec")
	rt.AddSpan(ex, "HAdd", 2, time.Millisecond, nil)
	f := rt.Finish(200, nil)
	r.Offer(f)

	for _, tt := range []struct {
		url      string
		wantCT   string
		wantBody string
	}{
		{"/debug/requests", "text/html", f.TraceID},
		{"/debug/requests?format=json", "application/json", f.TraceID},
		{"/debug/requests?format=chrome", "application/json", "traceEvents"},
		{"/debug/requests?trace=" + f.TraceID + "&format=json", "application/json", f.TraceID},
	} {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tt.url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", tt.url, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, tt.wantCT) {
			t.Fatalf("%s: content type %q, want %q", tt.url, ct, tt.wantCT)
		}
		if !strings.Contains(rec.Body.String(), tt.wantBody) {
			t.Fatalf("%s: body missing %q", tt.url, tt.wantBody)
		}
	}
	// Tenant attribute must be escaped in the HTML view.
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	if strings.Contains(rec.Body.String(), "<script>") {
		t.Fatal("HTML view does not escape attribute values")
	}
	// JSON round-trips into []*Finished.
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests?format=json", nil))
	var doc struct {
		Stats  RecorderStats `json:"stats"`
		Traces []*Finished   `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Traces) != 1 || len(doc.Traces[0].Spans) != 3 {
		t.Fatalf("JSON round trip lost spans: %+v", doc.Traces)
	}

	// With a second trace retained, ?trace=<id> selects one trace in every
	// view, and the HTML view's export links keep the filter.
	g := NewRequest(NewContext(), "other").Finish(200, nil)
	r.Offer(g)
	get := func(url string) string {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", url, rec.Code)
		}
		return rec.Body.String()
	}
	tracks := func(url string) int { return strings.Count(get(url), `"thread_name"`) }
	if n := tracks("/debug/requests?format=chrome"); n != 2 {
		t.Errorf("unfiltered chrome export has %d tracks, want 2", n)
	}
	if n := tracks("/debug/requests?trace=" + f.TraceID + "&format=chrome"); n != 1 {
		t.Errorf("?trace=<id>&format=chrome has %d tracks, want 1", n)
	}
	page := get("/debug/requests?trace=" + f.TraceID)
	for _, format := range []string{"json", "chrome"} {
		link := `href="?format=` + format + `&amp;trace=` + f.TraceID + `"`
		if !strings.Contains(page, link) {
			t.Errorf("filtered HTML view lacks %s", link)
		}
	}
	// Each trace row links its own chrome export.
	page = get("/debug/requests")
	for _, id := range []string{f.TraceID, g.TraceID} {
		if link := `href="?format=chrome&amp;trace=` + id + `"`; !strings.Contains(page, link) {
			t.Errorf("HTML view lacks the row link %s", link)
		}
	}
	// An unknown ID selects nothing: an empty list, not null.
	if body := get("/debug/requests?format=json&trace=" + strings.Repeat("0", 32)); !strings.Contains(body, `"traces":[]`) {
		t.Errorf("unknown trace ID answered %s, want an empty traces list", body)
	}
}

func TestContextPropagation(t *testing.T) {
	ctx := context.Background()
	if From(ctx) != nil {
		t.Fatal("empty context carried a trace")
	}
	if With(ctx, nil) != ctx {
		t.Fatal("With(nil) should be the identity")
	}
	rt := NewRequest(NewContext(), "r")
	if got := From(With(ctx, rt)); got != rt {
		t.Fatal("trace lost in context round trip")
	}
}

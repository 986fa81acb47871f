package tracing

import (
	"context"
	"sync"
	"time"
)

// SpanRef names a span within one RequestTrace: a 1-based index into the
// trace's span slab. Zero is "no span" — every method treats it as a
// no-op, so disabled-tracing call sites can thread refs around without
// branching.
type SpanRef int32

// Attr is one span attribute. Values are pre-rendered strings: rendering
// happens inside the nil-checked methods so disabled call sites never
// format (or allocate) anything.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// Span is one timed region of a request. Spans form a tree via Parent
// (a SpanRef; 0 for the root). Limbs is level+1 for evaluator op spans
// and 0 for structural spans, matching the telemetry collector's axis.
type Span struct {
	Ref     SpanRef `json:"ref"`
	Parent  SpanRef `json:"parent"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`        // unix nanoseconds
	DurNs   int64   `json:"dur_ns"`          // -1 while open
	Limbs   int     `json:"limbs,omitempty"` // level+1 for op spans
	Err     string  `json:"err,omitempty"`   // non-empty for failed spans
	Attrs   []Attr  `json:"attrs,omitempty"`
}

// RequestTrace accumulates one request's span tree. All methods are safe
// on a nil receiver (no-ops returning zero values) and safe for
// concurrent use — the HTTP goroutine, the dispatch lane running the job
// and the caller waiting on its result all append spans. After Finish,
// further mutations are dropped: a late span from an abandoned job can
// never race a flight-recorder reader.
type RequestTrace struct {
	mu       sync.Mutex
	tc       Context
	start    time.Time
	spans    []Span
	finished bool

	// stage is the request's open stage — the root child NextStage opened
	// last, 0 before the first. now is the unix-nanosecond clock stage
	// transitions and Finish read; tests script it.
	stage SpanRef
	now   func() int64
}

// NewRequest starts a trace whose root span is named name. The context's
// span ID (the caller's span, when propagated) is recorded as the root's
// remote parent attribute.
func NewRequest(tc Context, name string) *RequestTrace {
	rt := &RequestTrace{tc: tc, start: time.Now(), now: wallClock}
	rt.spans = append(rt.spans, Span{
		Ref:     1,
		Name:    name,
		StartNs: rt.start.UnixNano(),
		DurNs:   -1,
	})
	if tc.Span != 0 {
		rt.spans[0].Attrs = append(rt.spans[0].Attrs, Attr{Key: "remote_parent", Value: Context{Trace: tc.Trace, Span: tc.Span}.Header()})
	}
	return rt
}

func wallClock() int64 { return time.Now().UnixNano() }

// Context returns the trace's propagation context.
func (rt *RequestTrace) Context() Context {
	if rt == nil {
		return Context{}
	}
	return rt.tc
}

// TraceID returns the 32-hex trace ID, or "" when tracing is disabled.
func (rt *RequestTrace) TraceID() string {
	if rt == nil {
		return ""
	}
	return rt.tc.Trace.String()
}

// Root returns the root span's ref (always 1 on a live trace).
func (rt *RequestTrace) Root() SpanRef {
	if rt == nil {
		return 0
	}
	return 1
}

// StartSpan opens a child span under parent (0 means the root) and
// returns its ref. Returns 0 on a nil or finished trace.
func (rt *RequestTrace) StartSpan(parent SpanRef, name string) SpanRef {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished {
		return 0
	}
	if parent == 0 {
		parent = 1
	}
	ref := SpanRef(len(rt.spans) + 1)
	rt.spans = append(rt.spans, Span{
		Ref:     ref,
		Parent:  parent,
		Name:    name,
		StartNs: time.Now().UnixNano(),
		DurNs:   -1,
	})
	return ref
}

// NextStage moves the request into its next stage: one clock reading closes
// the open stage and starts the new one (the first stage starts with the
// root), and Finish closes the last stage at the instant it closes the root.
// Stages — ingest, queue, exec, deliver, … — are root children that
// therefore tile the root by construction: whatever happens between two
// transitions, a scheduler preemption included, is charged to the stage it
// hit, and Coverage is 1 without any appeal to the clock. The returned ref
// is for annotations and child spans; never End it (use StageErr to fail a
// stage). Returns 0 on a nil or finished trace.
func (rt *RequestTrace) NextStage(name string) SpanRef {
	if rt == nil {
		return 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished {
		return 0
	}
	at := rt.spans[0].StartNs
	if rt.stage != 0 {
		prev := &rt.spans[rt.stage-1]
		if prev.DurNs < 0 {
			prev.DurNs = rt.now() - prev.StartNs
		}
		at = prev.StartNs + prev.DurNs
	}
	rt.stage = SpanRef(len(rt.spans) + 1)
	rt.spans = append(rt.spans, Span{Ref: rt.stage, Parent: 1, Name: name, StartNs: at, DurNs: -1})
	return rt.stage
}

// StageErr records err (if any) on the open stage without closing it: the
// stage still ends where the next one starts, or at Finish.
func (rt *RequestTrace) StageErr(err error) {
	if rt == nil || err == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !rt.finished && rt.stage != 0 {
		rt.spans[rt.stage-1].Err = err.Error()
	}
}

// EndSpan closes a span opened with StartSpan.
func (rt *RequestTrace) EndSpan(ref SpanRef) { rt.EndSpanErr(ref, nil) }

// EndSpanErr closes a span, recording err (if any) on it.
func (rt *RequestTrace) EndSpanErr(ref SpanRef, err error) {
	if rt == nil || ref == 0 {
		return
	}
	now := time.Now().UnixNano()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished || int(ref) > len(rt.spans) {
		return
	}
	sp := &rt.spans[ref-1]
	if sp.DurNs >= 0 {
		return // already closed
	}
	sp.DurNs = now - sp.StartNs
	if err != nil {
		sp.Err = err.Error()
	}
}

// AddSpan records an already-completed span (start inferred as now-dur)
// under parent. Used for post-hoc regions measured elsewhere.
func (rt *RequestTrace) AddSpan(parent SpanRef, name string, dur time.Duration, err error) SpanRef {
	return rt.addCompleted(parent, name, 0, dur, err)
}

// AddOpSpan records a completed evaluator-op span: name is the op (or
// "<op>/<phase>") and level the FHE level it ran at. This is EvalObserver's
// fan-in path.
func (rt *RequestTrace) AddOpSpan(parent SpanRef, op string, level int, dur time.Duration, err error) {
	rt.addCompleted(parent, op, level+1, dur, err)
}

func (rt *RequestTrace) addCompleted(parent SpanRef, name string, limbs int, dur time.Duration, err error) SpanRef {
	if rt == nil {
		return 0
	}
	now := time.Now().UnixNano()
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished {
		return 0
	}
	if parent == 0 {
		parent = 1
	}
	ref := SpanRef(len(rt.spans) + 1)
	sp := Span{
		Ref:     ref,
		Parent:  parent,
		Name:    name,
		StartNs: now - int64(dur),
		DurNs:   int64(dur),
		Limbs:   limbs,
	}
	if err != nil {
		sp.Err = err.Error()
	}
	rt.spans = append(rt.spans, sp)
	return ref
}

// Annotate attaches a key/value attribute to a span.
func (rt *RequestTrace) Annotate(ref SpanRef, key, value string) {
	if rt == nil || ref == 0 {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished || int(ref) > len(rt.spans) {
		return
	}
	sp := &rt.spans[ref-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// AnnotateInt attaches an integer attribute. The int64 parameter keeps
// disabled call sites allocation-free: formatting happens here, after the
// nil check.
func (rt *RequestTrace) AnnotateInt(ref SpanRef, key string, v int64) {
	if rt == nil || ref == 0 {
		return
	}
	rt.Annotate(ref, key, itoa(v))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Finished is an immutable completed trace, ready for the flight
// recorder and exporters. Spans[0] is the root.
type Finished struct {
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	Status  int    `json:"status"` // HTTP status the request resolved to
	Err     string `json:"err,omitempty"`
	Keep    string `json:"keep,omitempty"` // recorder's retention reason
	Spans   []Span `json:"spans"`
}

// Finish seals the trace: the root span (and any span left open — e.g.
// the exec span of a job abandoned mid-retry) is closed at the finish
// instant, further mutations are dropped, and the immutable result is
// returned. Returns nil on a nil trace or a double Finish.
func (rt *RequestTrace) Finish(status int, err error) *Finished {
	if rt == nil {
		return nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.finished {
		return nil
	}
	now := rt.now()
	rt.finished = true
	for i := range rt.spans {
		if rt.spans[i].DurNs < 0 {
			rt.spans[i].DurNs = now - rt.spans[i].StartNs
		}
	}
	if err != nil && rt.spans[0].Err == "" {
		rt.spans[0].Err = err.Error()
	}
	f := &Finished{
		TraceID: rt.tc.Trace.String(),
		Name:    rt.spans[0].Name,
		StartNs: rt.spans[0].StartNs,
		DurNs:   rt.spans[0].DurNs,
		Status:  status,
		Spans:   rt.spans, // ownership transfers: the trace is sealed
	}
	if err != nil {
		f.Err = err.Error()
	}
	return f
}

// RootAttr returns the value of a root-span attribute, or "".
func (f *Finished) RootAttr(key string) string {
	if f == nil || len(f.Spans) == 0 {
		return ""
	}
	for _, a := range f.Spans[0].Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Coverage returns the fraction of the root span's wall-clock accounted
// for by its direct children — the acceptance observable for "queue +
// batch + per-op + recovery spans sum to the measured total".
func (f *Finished) Coverage() float64 {
	if f == nil || len(f.Spans) == 0 || f.DurNs <= 0 {
		return 0
	}
	var child int64
	for _, sp := range f.Spans[1:] {
		if sp.Parent == 1 && sp.DurNs > 0 {
			child += sp.DurNs
		}
	}
	cov := float64(child) / float64(f.DurNs)
	if cov > 1 {
		cov = 1 // overlapping retries can over-count; clamp for display
	}
	return cov
}

type ctxKey struct{}

// With attaches a request trace to a context.
func With(ctx context.Context, rt *RequestTrace) context.Context {
	if rt == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, rt)
}

// From extracts the request trace from a context, or nil.
func From(ctx context.Context) *RequestTrace {
	rt, _ := ctx.Value(ctxKey{}).(*RequestTrace)
	return rt
}

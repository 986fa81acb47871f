package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/telemetry"
	"poseidon/internal/trace"
	"poseidon/internal/tracing"
)

// Config parameterizes an EvalServer. The zero value of every tunable is
// replaced by the default noted on the field; Params is required.
type Config struct {
	Params *ckks.Parameters

	MaxBatch    int // max same-input rotations sharing one hoist (default 16)
	QueueDepth  int // dispatch queue capacity (default 256)
	RegistryCap int // resident tenant key sets (default 64)

	// FlushTimeout is accepted and ignored: dispatch is work-conserving;
	// deleted together with bench's mention by the next `benchmark` PR.
	FlushTimeout time.Duration

	// DegradeCooldown is accepted and ignored: dispatch has no modes to
	// decay; deleted together with bench's mention by the next `benchmark` PR.
	DegradeCooldown time.Duration

	// MaxArenaBytes is the admission ceiling: a request is rejected with
	// 503 while live arena bytes exceed it, as one is when the dispatch
	// queue is full. It counts every buffer checked out of the parameter
	// set's one arena — a hoist group's shared digit decomposition too.
	// Zero disables it.
	MaxArenaBytes int64

	// GuardSeed, when non-zero, arms integrity guards on every tenant
	// evaluator.
	GuardSeed int64

	// Fault recovery. OpMaxAttempts > 1 installs a ckks.RecoveryPolicy on
	// every tenant evaluator: ops failing with ErrIntegrity re-execute
	// transactionally up to that many total attempts. MaxJobAttempts > 1
	// additionally runs a job that still fails with ErrIntegrity again on
	// its lane, through its tenant's evaluator, up to that many total
	// attempts while its context lives, instead of failing the response.
	// Both default to 1 (off), preserving the zero-allocation steady state.
	OpMaxAttempts  int
	MaxJobAttempts int

	// DefaultDeadline bounds every HTTP evaluation request that does not
	// carry its own X-Poseidon-Deadline header (0 = unbounded). Expiry
	// returns 504 and the scheduler skips the abandoned job.
	DefaultDeadline time.Duration

	// Collector, when set, receives per-op spans from every tenant
	// evaluator and exports the server gauges on its /metrics page.
	Collector *telemetry.Collector

	// Tracer, when set, enables end-to-end request tracing: every request
	// grows a span tree (ingest → queue → exec, with per-op evaluator
	// spans, hoist attribution and one exec stage per job attempt) that is
	// tail-sampled into the tracer's flight recorder on completion. Nil
	// disables tracing entirely — the hot path then pays only nil checks,
	// preserving the zero-allocation steady state.
	Tracer *tracing.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.RegistryCap <= 0 {
		c.RegistryCap = 64
	}
	return c
}

// EvalServer is the multi-tenant evaluation service: a key registry, a
// scheduler of dispatch lanes, and the HTTP surface over both. One
// EvalServer owns one parameter set; every tenant shares its arena and
// worker pool the way the paper's operators share one set of physical
// kernels.
type EvalServer struct {
	cfg      Config
	params   *ckks.Parameters
	registry *Registry
	sched    *scheduler

	reqHist *telemetry.Histogram // end-to-end request latency

	requests    atomic.Uint64
	rejected    atomic.Uint64 // 503s from admission control
	badRequests atomic.Uint64
	opErrors    atomic.Uint64 // admitted requests whose evaluation failed
	timeouts    atomic.Uint64 // requests abandoned at their context deadline
	bytesIn     atomic.Uint64
	bytesOut    atomic.Uint64

	// tracer is nil when tracing is disabled; health is always on.
	tracer *tracing.Tracer
	health *healthTracker
}

// NewEvalServer builds the service and starts its dispatch lanes.
func NewEvalServer(cfg Config) (*EvalServer, error) {
	if cfg.Params == nil {
		return nil, errors.New("server: Config.Params is required")
	}
	cfg = cfg.withDefaults()
	s := &EvalServer{
		cfg:     cfg,
		params:  cfg.Params,
		reqHist: telemetry.NewHistogram(),
		health:  newHealthTracker(),
	}
	var collector trace.OpSink
	if cfg.Collector != nil {
		collector = cfg.Collector
	}
	// One dispatch lane per evaluator worker; sinks[i] is lane i's trace
	// sink, nil with tracing off, when one evaluator serves every lane.
	sinks := make([]*tracing.EvalObserver, cfg.Params.Workers())
	observers := []trace.OpSink{collector}
	if cfg.Tracer != nil {
		// Each lane's sink rides a fanout next to the collector on that
		// lane's view of every tenant evaluator; the lane activates it per
		// job so per-op spans land on the right request's tree even while
		// another lane runs the same tenant.
		s.tracer = cfg.Tracer
		observers = make([]trace.OpSink, len(sinks))
		for i := range sinks {
			sinks[i] = new(tracing.EvalObserver)
			observers[i] = ckks.Fanout(collector, sinks[i])
		}
	}
	s.registry = newRegistry(cfg.Params, cfg.RegistryCap, observers, cfg.GuardSeed, cfg.OpMaxAttempts)
	s.sched = newScheduler(cfg, cfg.Params)
	s.sched.start(sinks)
	// The serving-layer signals ride the collector's /metrics page next to
	// the evaluator histograms.
	if c := cfg.Collector; c != nil {
		c.RegisterAux(s.writeServeMetrics)
		c.RegisterAux(s.health.WritePrometheus)
		if s.tracer != nil && s.tracer.Recorder != nil {
			c.RegisterAux(s.writeLatencyMetrics)
		}
	}
	return s, nil
}

// writeServeMetrics renders the poseidon_serve_* gauge families, sorted by
// name, from one Stats snapshot — the figures /v1/health serves.
func (s *EvalServer) writeServeMetrics(w io.Writer) {
	st := s.Stats()
	for _, g := range []struct {
		name, help string
		v          float64
	}{
		{"poseidon_serve_arena_bytes", "live arena bytes (admission signal)", float64(st.ArenaBytes)},
		{"poseidon_serve_job_recovered_total", "jobs that succeeded on a retry attempt", float64(st.JobRecovered)},
		{"poseidon_serve_job_retries_total", "integrity-failed jobs run again by the scheduler", float64(st.JobRetries)},
		{"poseidon_serve_job_unrecoverable_total", "jobs answered with an integrity error", float64(st.JobUnrecovered)},
		{"poseidon_serve_queue_depth", "jobs waiting for dispatch", float64(st.QueueLen)},
		{"poseidon_serve_rejected_total", "requests rejected by admission control", float64(st.Rejected)},
		{"poseidon_serve_request_p99_seconds", "end-to-end request p99 since start", float64(st.RequestP99Ns) / 1e9},
		{"poseidon_serve_requests_total", "evaluation requests accepted", float64(st.Requests)},
		{"poseidon_serve_resident_tenants", "tenant key sets resident in the registry", float64(st.ResidentKeys)},
		{"poseidon_serve_timeouts_total", "requests abandoned at their context deadline", float64(st.Timeouts)},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.name, g.help, g.name, g.name, g.v)
	}
}

// Close drains the dispatch queue and stops the lanes. In-flight and
// queued requests complete; new ones are refused with ErrOverloaded.
func (s *EvalServer) Close() { s.sched.stop() }

// Shutdown closes the dispatch queue and waits for queued jobs to drain,
// bounded by ctx. On expiry it returns the drain error while the lanes keep
// working in the background; jobs already dispatched still complete and
// deliver their results.
func (s *EvalServer) Shutdown(ctx context.Context) error { return s.sched.stopCtx(ctx) }

// Registry exposes the tenant key registry (tests, in-process embedding).
func (s *EvalServer) Registry() *Registry { return s.registry }

// admit applies backpressure before a request touches the evaluator: live
// arena bytes over MaxArenaBytes reject with ErrOverloaded (HTTP 503 +
// Retry-After), as a full dispatch queue does at enqueue.
func (s *EvalServer) admit() error {
	if max := s.cfg.MaxArenaBytes; max > 0 {
		if inUse := int64(s.params.ArenaStats().BytesInUse); inUse > max {
			return errOverloadedf("arena bytes %d over ceiling %d", inUse, max)
		}
	}
	return nil
}

// Eval runs one decoded request through admission, the registry, and the
// scheduler with no deadline. This is the in-process entry point;
// the HTTP handler wraps EvalCtx.
func (s *EvalServer) Eval(req *EvalRequest) (*ckks.Ciphertext, int, error) {
	return s.EvalCtx(context.Background(), req)
}

// EvalCtx is Eval under a caller-supplied context: when ctx expires before
// the job's result is delivered, EvalCtx returns ctx's error immediately
// (the HTTP layer maps DeadlineExceeded to 504) and the scheduler notices
// the abandoned job at dispatch, or before running it again, and skips the
// evaluation.
// Returns the result ciphertext and the size of the unit it was dispatched
// in. A rotation's req.Ct is compared against other queued rotations until
// the job is taken — which an expired ctx does not wait for — so callers
// must not overwrite it after the call.
func (s *EvalServer) EvalCtx(ctx context.Context, req *EvalRequest) (ct *ckks.Ciphertext, batch int, err error) {
	start := time.Now()
	// Adopt the trace the HTTP layer put on the context; in-process
	// callers (soaks, benches, embeddings) get a root minted here so their
	// requests reach the flight recorder too. rt stays nil with tracing
	// off — every span call below degrades to a nil check.
	rt := tracing.From(ctx)
	ownTrace := false
	if rt == nil && s.tracer != nil {
		rt = s.tracer.NewRequest(tracing.NewContext(), "eval")
		ownTrace = true
	}
	if rt != nil {
		rt.Annotate(rt.Root(), "tenant", req.Tenant)
		rt.Annotate(rt.Root(), "op", req.Op.String())
	}
	defer func() {
		s.reqHist.Observe(uint64(time.Since(start).Nanoseconds()))
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.timeouts.Add(1)
		case errors.Is(err, ErrBadRequest), errors.Is(err, ErrOverloaded), errors.Is(err, ErrUnknownTenant):
		default:
			s.opErrors.Add(1)
		}
		if err == nil {
			// Runs inside the finalize stage opened on receive: the
			// headroom figure walks the ciphertext's active primes.
			s.health.sample(req.Tenant, ct, s.params)
			if rt != nil && ct != nil {
				rt.AnnotateInt(rt.Root(), "ct_level", int64(ct.Level))
				rt.AnnotateInt(rt.Root(), "headroom_bits", int64(ckks.HeadroomBits(s.params, ct)))
			}
		}
		if ownTrace {
			s.tracer.Offer(rt.Finish(statusOf(err), err))
		}
	}()
	// Each stage below ends where the next begins (NextStage), so the
	// stages tile the root span whatever the goroutine scheduler does.
	rt.NextStage("ingest")
	if err := s.validateEval(req); err != nil {
		s.badRequests.Add(1)
		rt.StageErr(err)
		return nil, 0, err
	}
	if err := s.admit(); err != nil {
		s.rejected.Add(1)
		rt.StageErr(err)
		return nil, 0, err
	}
	entry, err := s.registry.Acquire(req.Tenant)
	if err != nil {
		rt.StageErr(err)
		return nil, 0, err
	}
	defer s.registry.Release(entry)

	j := &job{
		entry: entry,
		op:    req.Op,
		steps: req.Steps,
		width: req.Width,
		ctx:   ctx,
		trace: rt,
		done:  make(chan jobResult, 1),
	}
	j.ct, err = s.parseOperand("ciphertext", req.Ct)
	if err == nil && req.Op.twoOperand() {
		// An operand passed twice (a squaring, a doubling) is parsed and
		// sealed once, and exec then verifies it once.
		j.ct2 = j.ct
		if !bytes.Equal(req.Ct2, req.Ct) {
			j.ct2, err = s.parseOperand("second ciphertext", req.Ct2)
		}
	}
	if err != nil {
		s.badRequests.Add(1)
		rt.StageErr(err)
		return nil, 0, err
	}
	if ev := entry.evaluator(0); ev.GuardsEnabled() { // guards are shared by every view
		// Seal inputs at ingest so faults corrupting request operands while
		// they sit queued (the serving analogue of resident-HBM corruption)
		// are caught at the operator's input boundary — and so a scheduler
		// retry re-verifies the operands it re-executes from.
		ev.SealIntegrity(j.ct)
		if j.ct2 != nil && j.ct2 != j.ct {
			ev.SealIntegrity(j.ct2)
		}
	}
	if req.Op == OpRotate {
		// Keep the raw bytes so take can recognize same-input rotations and
		// share one hoisted decomposition across them.
		j.setInput(req.Ct)
	}
	rt.NextStage("queue")
	if err := s.sched.enqueue(j); err != nil {
		s.rejected.Add(1)
		rt.StageErr(err)
		return nil, 0, err
	}
	select {
	case res := <-j.done:
		// Leave the hand-back stage the executor opened at delivery: on a
		// loaded machine this goroutine's wake-up lags the result, and
		// that wait is part of the request's wall-clock.
		rt.NextStage("finalize")
		s.requests.Add(1)
		if res.err != nil {
			return nil, res.batch, res.err
		}
		return res.ct, res.batch, nil
	case <-ctx.Done():
		// The job stays queued; the scheduler skips it (or does not run it
		// again) once it notices the context is dead. Count it as accepted
		// work.
		s.requests.Add(1)
		return nil, 0, fmt.Errorf("server: request deadline: %w", ctx.Err())
	}
}

// parseOperand decodes one request ciphertext and checks it against the
// server's parameter set; bytes that do not decode, or decode to a
// ciphertext the evaluator would refuse, are a bad request.
func (s *EvalServer) parseOperand(what string, b []byte) (*ckks.Ciphertext, error) {
	ct := new(ckks.Ciphertext)
	err := ct.UnmarshalBinary(b)
	if err == nil {
		err = s.params.CheckCiphertext(ct)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrBadRequest, what, err)
	}
	return ct, nil
}

// validateEval checks the request fields the wire decoder cannot: opcode
// range, and an inner-sum width that is a power of two in [1, Slots] of the
// server's parameter set.
func (s *EvalServer) validateEval(req *EvalRequest) error {
	if req.Op <= 0 || req.Op >= opEnd {
		return badf("opcode %d out of range", uint64(req.Op))
	}
	if w := req.Width; req.Op == OpInnerSum && (w < 1 || w > s.params.Slots || w&(w-1) != 0) {
		return badf("inner-sum width %d is not a power of two in [1, %d]", w, s.params.Slots)
	}
	if len(req.Ct) == 0 {
		return badf("empty ciphertext")
	}
	if req.Op.twoOperand() && len(req.Ct2) == 0 {
		return badf("%s needs a second ciphertext", req.Op)
	}
	return nil
}

// RegisterKeys decodes a tenant's uploaded key material, checks every key's
// shape and words against the server's parameter set
// (Parameters.CheckSwitchingKey), and installs it; a key that does not
// decode or does not pass is a bad request, and the registry never sees it.
func (s *EvalServer) RegisterKeys(u *KeyUpload) error {
	var rlk *ckks.RelinearizationKey
	if len(u.Relin) > 0 {
		rlk = new(ckks.RelinearizationKey)
		err := rlk.UnmarshalBinary(u.Relin)
		if err == nil {
			err = s.params.CheckSwitchingKey(&rlk.SwitchingKey)
		}
		if err != nil {
			return fmt.Errorf("%w: relinearization key: %w", ErrBadRequest, err)
		}
	}
	var rtk *ckks.RotationKeySet
	if len(u.Rotations) > 0 {
		rtk = new(ckks.RotationKeySet)
		if err := rtk.UnmarshalBinary(u.Rotations); err != nil {
			return fmt.Errorf("%w: rotation key set: %w", ErrBadRequest, err)
		}
		for g, k := range rtk.Keys {
			if err := s.params.CheckSwitchingKey(k); err != nil {
				return fmt.Errorf("%w: rotation key %d: %w", ErrBadRequest, g, err)
			}
		}
	}
	return s.registry.Register(u.Tenant, rlk, rtk)
}

// Stats is a point-in-time summary of the serving layer, exported by
// /v1/health and the bench harness.
type Stats struct {
	Requests       uint64   `json:"requests"`
	Rejected       uint64   `json:"rejected"`
	BadRequests    uint64   `json:"bad_requests"`
	OpErrors       uint64   `json:"op_errors"`
	Batches        uint64   `json:"batches"`   // units dispatched: a hoist group or a lone request
	Occupancy      []uint64 `json:"occupancy"` // index = unit size; [0] unused
	HoistGroups    uint64   `json:"hoist_groups"`
	HoistShared    uint64   `json:"hoist_shared"`      // decompositions saved by sharing
	Timeouts       uint64   `json:"timeouts"`          // requests abandoned at their deadline
	JobRetries     uint64   `json:"job_retries"`       // integrity-failed jobs run again
	JobRecovered   uint64   `json:"job_recovered"`     // jobs that succeeded on a retry attempt
	JobUnrecovered uint64   `json:"job_unrecoverable"` // jobs answered with ErrIntegrity
	ResidentKeys   int      `json:"resident_keys"`
	Evictions      uint64   `json:"evictions"`
	PinnedSkips    uint64   `json:"pinned_skips"`
	QueueLen       int      `json:"queue_len"`
	ArenaBytes     uint64   `json:"arena_bytes"`
	RequestP99Ns   int64    `json:"request_p99_ns"`
	BytesIn        uint64   `json:"bytes_in"`
	BytesOut       uint64   `json:"bytes_out"`
	MeanBatch      float64  `json:"mean_batch"`
	BatchedFrac    float64  `json:"batched_frac"` // fraction of requests served in units ≥2
	RequestMeanNs  float64  `json:"request_mean_ns"`
	RequestCount   uint64   `json:"request_count"`
	RequestTotalNs uint64   `json:"request_total_ns"`
}

// Stats snapshots the serving counters.
func (s *EvalServer) Stats() Stats {
	occ := make([]uint64, len(s.sched.occupancy))
	var jobs, batched uint64
	for i := range s.sched.occupancy {
		occ[i] = s.sched.occupancy[i].Load()
		jobs += occ[i] * uint64(i)
		if i >= 2 {
			batched += occ[i] * uint64(i)
		}
	}
	hist := s.reqHist.Snapshot()
	st := Stats{
		Requests:       s.requests.Load(),
		Rejected:       s.rejected.Load(),
		BadRequests:    s.badRequests.Load(),
		OpErrors:       s.opErrors.Load(),
		Batches:        s.sched.batches.Load(),
		Occupancy:      occ,
		HoistGroups:    s.sched.hoistGroups.Load(),
		HoistShared:    s.sched.hoistShared.Load(),
		Timeouts:       s.timeouts.Load(),
		JobRetries:     s.sched.jobRetries.Load(),
		JobRecovered:   s.sched.jobRecovered.Load(),
		JobUnrecovered: s.sched.jobUnrecoverable.Load(),
		ResidentKeys:   s.registry.Resident(),
		Evictions:      s.registry.Evictions(),
		PinnedSkips:    s.registry.PinnedSkips(),
		QueueLen:       s.sched.queued(),
		ArenaBytes:     s.params.ArenaStats().BytesInUse,
		RequestP99Ns:   int64(hist.Quantile(0.99)),
		BytesIn:        s.bytesIn.Load(),
		BytesOut:       s.bytesOut.Load(),
		RequestMeanNs:  hist.MeanNs(),
		RequestCount:   hist.Count,
		RequestTotalNs: hist.SumNs,
	}
	if b := st.Batches; b > 0 {
		st.MeanBatch = float64(jobs) / float64(b)
	}
	if jobs > 0 {
		st.BatchedFrac = float64(batched) / float64(jobs)
	}
	return st
}

// maxBodyBytes bounds any request body: the largest legitimate payload is
// a key upload (a rotation key set is tens of switching keys).
const maxBodyBytes = 1 << 30

// readBody reads a request body and counts it into bytesIn. A declared
// length within the cap is read into one buffer of exactly that size —
// io.ReadAll grows through some twenty reallocations and five times the
// bytes for a ciphertext envelope — and a body shorter or longer than it
// declared is refused; chunked and undeclared bodies keep the capped ReadAll.
func (s *EvalServer) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var body []byte
	var err error
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		body = make([]byte, n)
		if _, err = io.ReadFull(r.Body, body); err == nil {
			var extra [1]byte
			if m, _ := r.Body.Read(extra[:]); m > 0 {
				err = fmt.Errorf("more than the declared %d bytes", n)
			}
		}
	} else {
		body, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	}
	if err != nil {
		return nil, badf("reading body: %v", err)
	}
	s.bytesIn.Add(uint64(len(body)))
	return body, nil
}

// Handler returns the HTTP surface: POST /v1/eval, POST /v1/keys,
// GET /v1/health.
func (s *EvalServer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/eval", s.handleEval)
	mux.HandleFunc("/v1/keys", s.handleKeys)
	mux.HandleFunc("/v1/health", s.handleHealth)
	return mux
}

// httpStatus maps the typed error surface onto status codes: structural
// rejections are 400, unknown tenants 404, evaluation failures on valid
// envelopes 422, overload 503 (with Retry-After), expired request
// deadlines 504, anything else 500.
func httpStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrUnknownTenant):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, ckks.ErrCorrupt),
		errors.Is(err, ckks.ErrInvalidInput),
		errors.Is(err, ckks.ErrKeyMissing),
		errors.Is(err, ckks.ErrScaleMismatch),
		errors.Is(err, ckks.ErrLevelExhausted):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func (s *EvalServer) fail(w http.ResponseWriter, err error) {
	code := httpStatus(err)
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), code)
}

func (s *EvalServer) handleEval(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Resolve the trace context before any work so the ID covers (and is
	// echoed for) every outcome, including malformed requests.
	var rt *tracing.RequestTrace
	if s.tracer != nil {
		tc, err := traceFromRequest(r.Header)
		if err != nil {
			s.badRequests.Add(1)
			s.fail(w, err)
			return
		}
		rt = s.tracer.NewRequest(tc, "http-eval")
		w.Header().Set(tracing.Header, tc.Trace.String())
	}
	err := s.serveEval(w, r, rt)
	if err != nil {
		s.fail(w, err)
	}
	s.tracer.Offer(rt.Finish(statusOf(err), err))
}

// serveEval is handleEval's body behind a single error return so the
// request trace is finished (and tail-sampled into the flight recorder)
// on exactly one path.
func (s *EvalServer) serveEval(w http.ResponseWriter, r *http.Request, rt *tracing.RequestTrace) error {
	rt.NextStage("decode")
	body, err := s.readBody(w, r)
	if err != nil {
		rt.StageErr(err)
		return err
	}
	req, err := DecodeEvalRequest(body)
	if err != nil {
		s.badRequests.Add(1)
		rt.StageErr(err)
		return err
	}
	ctx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Poseidon-Deadline"); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil || d <= 0 {
			s.badRequests.Add(1)
			return badf("X-Poseidon-Deadline %q: want a positive Go duration", h)
		}
		deadline = d
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	ct, batch, err := s.EvalCtx(tracing.With(ctx, rt), req)
	if err != nil {
		return err
	}
	rt.NextStage("encode")
	out, err := ct.MarshalBinary()
	if err != nil {
		rt.StageErr(err)
		return err
	}
	s.bytesOut.Add(uint64(len(out)))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Poseidon-Batch", fmt.Sprint(batch))
	w.Write(out)
	return nil
}

func (s *EvalServer) handleKeys(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, err)
		return
	}
	u, err := DecodeKeyUpload(body)
	if err != nil {
		s.badRequests.Add(1)
		s.fail(w, err)
		return
	}
	if err := s.RegisterKeys(u); err != nil {
		s.fail(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *EvalServer) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Stats()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(st)
}

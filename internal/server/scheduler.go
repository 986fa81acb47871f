package server

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/tracing"
)

// The scheduler is the software analogue of the paper's operator
// time-multiplexing: one execution resource (a single dispatcher
// goroutine driving the evaluator) serves many tenant request streams by
// interleaving them in batches. A batch holds requests at the same level
// (same limb count → the same arena size classes stay hot and one
// evaluator pass covers the batch); rotations of the same input
// ciphertext within a batch share one hoisted digit decomposition, the
// dominant cost of a keyswitch. Batch formation waits at most
// FlushTimeout for a batch to fill, flushes early when full, and splits
// on a level mismatch — the mismatched request opens the next batch, it
// is never dropped.

// dispatch modes — the degradation ladder.
const (
	modeBatched int32 = iota // normal: batches up to MaxBatch
	modeSerial               // after a guard trip: one request per batch
	modeShed                 // repeated trips: admission rejects new work
)

func modeName(m int32) string {
	switch m {
	case modeSerial:
		return "serial"
	case modeShed:
		return "shed"
	}
	return "batched"
}

// job is one admitted evaluation request queued for dispatch.
type job struct {
	entry *tenantEntry
	op    Op
	steps int
	width int
	ct    *ckks.Ciphertext
	ct2   *ckks.Ciphertext

	// digest identifies the raw input ciphertext bytes of a rotation so
	// the batch executor can recognize same-input rotations and run them
	// through one hoisted decomposition. Tenant-scoped: requests from
	// different tenants never share (their keys differ).
	digest    [sha256.Size]byte
	hasDigest bool

	// ctx is the request's context (nil = none): an expired job is skipped
	// cheaply by the executor and never re-enqueued by the retry path.
	ctx context.Context
	// attempt counts scheduler-level re-executions of this job after
	// integrity failures (0 = first run).
	attempt int

	// trace is the request's span tree (nil with tracing off; every use is
	// a nil check). The request moves through it as a sequence of stage
	// transitions (RequestTrace.NextStage): queue opens at enqueue (and per
	// retry) and ends where the dispatcher opens exec; deliver opens just
	// before the executor sends on done and ends where the caller, having
	// received, opens finalize — on a saturated machine the caller
	// goroutine's wake-up can lag the result by many milliseconds, and that
	// wait is request wall-clock the tree must account for. Transitions
	// cross goroutines but never concurrently — the enqueue → channel →
	// dispatch edge (and the send → receive edge on done) orders each
	// hand-off.
	trace *tracing.RequestTrace

	done chan jobResult // buffered(1): the executor never blocks delivering
}

func (j *job) level() int { return j.ct.Level }

// ctxErr reports the job's context expiry, wrapped for the HTTP layer
// (context.DeadlineExceeded maps to 504).
func (j *job) ctxErr() error {
	if j.ctx == nil {
		return nil
	}
	if err := j.ctx.Err(); err != nil {
		return fmt.Errorf("server: request abandoned: %w", err)
	}
	return nil
}

type jobResult struct {
	ct    *ckks.Ciphertext
	batch int // occupancy of the batch the job rode in
	err   error
}

type scheduler struct {
	cfg    Config
	params *ckks.Parameters

	queue  chan *job
	qmu    sync.RWMutex
	closed bool
	done   chan struct{}

	mode      atomic.Int32
	coolUntil atomic.Int64 // unix nanos; mode decays one rung per elapsed cooldown

	batches     atomic.Uint64
	occupancy   []atomic.Uint64 // index = batch size, [0] unused
	hoistGroups atomic.Uint64   // batches of ≥2 rotations sharing a decomposition
	hoistShared atomic.Uint64   // decompositions saved by sharing
	guardTrips  atomic.Uint64

	// job-level recovery counters: re-enqueues after integrity failures,
	// jobs that eventually succeeded on a retry, and jobs that exhausted
	// the attempt budget (the only ones that trip the degradation ladder).
	jobRetries       atomic.Uint64
	jobRecovered     atomic.Uint64
	jobUnrecoverable atomic.Uint64

	// sink is the evaluator-observation bridge the dispatcher activates
	// around each job's evaluator call so per-op spans land on that job's
	// trace. Nil with tracing off.
	sink *tracing.EvalObserver

	// testExec, when set (tests only), replaces the evaluator call for a
	// job: a non-nil return is delivered as the op's failure. It lets the
	// degradation tests inject a deterministic mid-batch integrity fault
	// without arming the global fault injector.
	testExec func(*job) error
}

func newScheduler(cfg Config, params *ckks.Parameters, sink *tracing.EvalObserver) *scheduler {
	s := &scheduler{
		cfg:       cfg,
		params:    params,
		queue:     make(chan *job, cfg.QueueDepth),
		done:      make(chan struct{}),
		occupancy: make([]atomic.Uint64, cfg.MaxBatch+1),
		sink:      sink,
	}
	go s.run()
	return s
}

// beginExec moves the job from its queue-wait stage into its exec stage,
// pointing the evaluator's observation sink at this job's trace. Called
// only from the dispatcher goroutine; nil-safe throughout.
func (s *scheduler) beginExec(j *job, batchSize int) tracing.SpanRef {
	ex := j.trace.NextStage("exec")
	j.trace.AnnotateInt(ex, "batch", int64(batchSize))
	if j.attempt > 0 {
		j.trace.AnnotateInt(ex, "attempt", int64(j.attempt+1))
	}
	if s.sink != nil && j.trace != nil {
		s.sink.Activate(j.trace, ex)
	}
	return ex
}

// endExec detaches the sink and records the outcome on the exec stage,
// which stays open until the job is delivered or backs off.
func (s *scheduler) endExec(j *job, err error) {
	if s.sink != nil {
		s.sink.Deactivate()
	}
	j.trace.StageErr(err)
}

// deliver hands the job's outcome back to the waiting caller, opening the
// deliver stage the caller leaves on receive (EvalCtx). done is buffered,
// so the send never blocks the dispatcher.
func (s *scheduler) deliver(j *job, res jobResult) {
	j.trace.NextStage("deliver")
	j.done <- res
}

// enqueue admits a job to the dispatch queue without blocking: a full
// queue is backpressure, reported as ErrOverloaded.
func (s *scheduler) enqueue(j *job) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.closed {
		return errOverloadedf("shutting down")
	}
	select {
	case s.queue <- j:
		return nil
	default:
		return errOverloadedf("dispatch queue full (%d)", s.cfg.QueueDepth)
	}
}

// stop closes the queue and waits for the dispatcher to drain every
// admitted job — graceful: queued work completes, new work is refused.
func (s *scheduler) stop() { s.stopCtx(context.Background()) }

// stopCtx is stop with a drain bound: when ctx expires before the
// dispatcher has drained the queue, stopCtx returns the expiry error with
// the dispatcher still running (it keeps draining in the background —
// abandoning it would strand queued requesters on their done channels).
// Jobs parked in retry backoff are not waited for: their re-enqueue fails
// against the closed queue and delivers the original failure.
func (s *scheduler) stopCtx(ctx context.Context) error {
	s.qmu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w (%d jobs still queued)", ctx.Err(), len(s.queue))
	}
}

// currentMode returns the dispatch mode after applying cooldown decay:
// each elapsed DegradeCooldown since the last escalation steps the ladder
// down one rung.
func (s *scheduler) currentMode() int32 {
	now := time.Now().UnixNano()
	for {
		m := s.mode.Load()
		if m == modeBatched {
			return m
		}
		cu := s.coolUntil.Load()
		if now < cu {
			return m
		}
		if s.mode.CompareAndSwap(m, m-1) {
			s.coolUntil.CompareAndSwap(cu, cu+s.cfg.DegradeCooldown.Nanoseconds())
		}
	}
}

// tripGuard escalates the ladder one rung and restarts the cooldown.
func (s *scheduler) tripGuard() {
	s.guardTrips.Add(1)
	for {
		m := s.mode.Load()
		next := m + 1
		if next > modeShed {
			next = modeShed
		}
		if s.mode.CompareAndSwap(m, next) {
			s.coolUntil.Store(time.Now().Add(s.cfg.DegradeCooldown).UnixNano())
			return
		}
	}
}

func (s *scheduler) maxBatchNow() int {
	if s.currentMode() != modeBatched {
		return 1 // degraded: serial dispatch, queued work still drains
	}
	return s.cfg.MaxBatch
}

// run is the dispatcher: one goroutine, one batch at a time — the single
// time-multiplexed datapath.
func (s *scheduler) run() {
	defer close(s.done)
	var pending *job
	for {
		first := pending
		pending = nil
		if first == nil {
			j, ok := <-s.queue
			if !ok {
				return
			}
			first = j
		}
		batch := s.collect(first, &pending)
		s.execBatch(batch)
	}
}

// collect forms one batch: same level throughout, at most maxBatchNow
// jobs, waiting at most FlushTimeout for laggards. A level-mismatched job
// flushes the batch and is carried into the next one via pending.
func (s *scheduler) collect(first *job, pending **job) []*job {
	batch := []*job{first}
	level := first.level()
	max := s.maxBatchNow()
	if max <= 1 {
		return batch
	}
	timer := time.NewTimer(s.cfg.FlushTimeout)
	defer timer.Stop()
	for len(batch) < max {
		select {
		case j, ok := <-s.queue:
			if !ok {
				return batch
			}
			if j.level() != level {
				*pending = j // level mismatch splits the batch; the job opens the next one
				return batch
			}
			batch = append(batch, j)
		case <-timer.C:
			return batch // timeout flush of a partial batch
		}
	}
	return batch
}

// groupKey identifies a hoist-sharing group within a batch: same tenant
// entry, same input ciphertext bytes.
type groupKey struct {
	entry  *tenantEntry
	digest [sha256.Size]byte
}

// execBatch runs every job of a batch, amortizing hoisted-rotation
// decompositions across same-input rotations. An integrity failure
// degrades the dispatch mode but never drops the rest of the batch or the
// queue: remaining jobs still execute (serially, on the next batches).
func (s *scheduler) execBatch(batch []*job) {
	s.batches.Add(1)
	occ := len(batch)
	if occ >= len(s.occupancy) {
		occ = len(s.occupancy) - 1
	}
	s.occupancy[occ].Add(1)

	// Pass 1: find hoist-sharing groups (≥2 rotations of identical input
	// bytes from the same tenant).
	var groups map[groupKey][]*job
	for _, j := range batch {
		if !j.hasDigest {
			continue
		}
		if groups == nil {
			groups = map[groupKey][]*job{}
		}
		k := groupKey{entry: j.entry, digest: j.digest}
		groups[k] = append(groups[k], j)
	}

	// Pass 2: execute in arrival order; a job in a shared group executes
	// the whole group at its first member.
	ran := map[*job]bool{}
	for _, j := range batch {
		if ran[j] {
			continue
		}
		if j.hasDigest {
			k := groupKey{entry: j.entry, digest: j.digest}
			if g := groups[k]; len(g) >= 2 {
				s.execHoistGroup(g, len(batch))
				for _, gj := range g {
					ran[gj] = true
				}
				continue
			}
		}
		s.execOne(j, len(batch))
		ran[j] = true
	}
}

// execHoistGroup runs ≥2 same-input rotations through one shared digit
// decomposition. Any failure of the shared phase falls back to individual
// rotations so a group member never sees a worse outcome than serial
// dispatch.
func (s *scheduler) execHoistGroup(group []*job, batchSize int) {
	ev := group[0].entry.ev
	if s.testExec != nil {
		for _, j := range group {
			s.execOne(j, batchSize)
		}
		return
	}
	lead := group[0]
	hs := lead.trace.NextStage("hoist") // the shared hoist is the leader's first exec work
	lead.trace.AnnotateInt(hs, "group", int64(len(group)))
	h, err := ev.TryHoist(group[0].ct)
	if err != nil {
		lead.trace.StageErr(err)
		// The fallback re-executes each member individually, where the
		// job-retry path applies; with retries off, the failure drives the
		// ladder here as before (execOne sees per-job errors itself).
		if !s.retryEnabled() {
			s.noteErr(err)
		}
		for _, j := range group {
			s.execOne(j, batchSize)
		}
		return
	}
	defer h.Release()
	s.hoistGroups.Add(1)
	s.hoistShared.Add(uint64(len(group) - 1))
	for _, j := range group {
		ex := s.beginExec(j, batchSize)
		if j == lead {
			j.trace.Annotate(ex, "hoist", "leader")
		} else {
			j.trace.Annotate(ex, "hoist", "shared")
		}
		res, err := h.TryRotate(j.steps)
		s.endExec(j, err)
		s.finish(j, res, batchSize, err)
	}
}

// execOne runs a single job through its tenant's evaluator.
func (s *scheduler) execOne(j *job, batchSize int) {
	if err := j.ctxErr(); err != nil {
		j.trace.StageErr(err) // abandoned while queued
		s.deliver(j, jobResult{batch: batchSize, err: err})
		return
	}
	s.beginExec(j, batchSize)
	var res *ckks.Ciphertext
	var err error
	if s.testExec != nil {
		err = s.testExec(j)
	}
	if err == nil {
		res, err = s.eval(j)
	}
	s.endExec(j, err)
	s.finish(j, res, batchSize, err)
}

func (s *scheduler) retryEnabled() bool { return s.cfg.MaxJobAttempts > 1 }

// finish delivers a job outcome, routing integrity failures through the
// job-retry path first: a retryable job is re-enqueued after a backoff and
// its response deferred; only a job that exhausts the attempt budget (or
// fails for a non-integrity reason) is answered with the error, and only
// that unrecoverable integrity failure trips the degradation ladder — a
// fault the system recovers from is not a reason to shed load.
func (s *scheduler) finish(j *job, res *ckks.Ciphertext, batchSize int, err error) {
	if err == nil {
		if j.attempt > 0 {
			s.jobRecovered.Add(1)
		}
		s.deliver(j, jobResult{ct: res, batch: batchSize})
		return
	}
	if errors.Is(err, ckks.ErrIntegrity) {
		if s.retryJob(j, batchSize, err) {
			return
		}
		s.jobUnrecoverable.Add(1)
		s.tripGuard()
	}
	s.deliver(j, jobResult{batch: batchSize, err: err})
}

// retryJob re-enqueues an integrity-failed job with exponential backoff,
// bounded by MaxJobAttempts and the job's context. The backoff runs on a
// timer so the dispatcher never sleeps; if the re-enqueue races a closed
// or full queue, the original failure is delivered instead of being lost.
func (s *scheduler) retryJob(j *job, batchSize int, cause error) bool {
	if !s.retryEnabled() || j.attempt+1 >= s.cfg.MaxJobAttempts {
		return false
	}
	if j.ctxErr() != nil {
		return false
	}
	j.attempt++
	s.jobRetries.Add(1)
	backoff := s.cfg.RetryBackoff << uint(j.attempt-1)
	if lim := 250 * time.Millisecond; backoff > lim {
		backoff = lim
	}
	if j.trace != nil {
		bo := j.trace.NextStage("backoff")
		j.trace.AnnotateInt(bo, "attempt", int64(j.attempt))
		j.trace.Annotate(bo, "cause", cause.Error())
	}
	time.AfterFunc(backoff, func() {
		j.trace.NextStage("queue")
		if err := s.enqueue(j); err != nil {
			j.trace.StageErr(err)
			s.deliver(j, jobResult{batch: batchSize,
				err: fmt.Errorf("%w (retry %d not enqueued: %v)", cause, j.attempt, err)})
		}
	})
	return true
}

func (s *scheduler) eval(j *job) (*ckks.Ciphertext, error) {
	ev := j.entry.ev
	switch j.op {
	case OpAdd:
		return ev.TryAdd(j.ct, j.ct2)
	case OpSub:
		return ev.TrySub(j.ct, j.ct2)
	case OpMulRelin:
		return ev.TryMulRelin(j.ct, j.ct2)
	case OpRescale:
		return ev.TryRescale(j.ct)
	case OpRotate:
		return ev.TryRotate(j.ct, j.steps)
	case OpConjugate:
		return ev.TryConjugate(j.ct)
	case OpNegate:
		out := ckks.NewCiphertext(s.params, j.ct.Level)
		return ev.TryNegInto(out, j.ct)
	case OpInnerSum:
		return ev.TryInnerSum(j.ct, j.width) // width checked at admission
	}
	return nil, badf("unexecutable opcode %d", uint64(j.op))
}

// noteErr inspects an op failure: integrity faults drive the degradation
// ladder.
func (s *scheduler) noteErr(err error) {
	if errors.Is(err, ckks.ErrIntegrity) {
		s.tripGuard()
	}
}

func errOverloadedf(format string, args ...any) error {
	return fmt.Errorf("server: %w: "+format, append([]any{ErrOverloaded}, args...)...)
}

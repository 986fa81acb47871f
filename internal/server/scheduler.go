package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"poseidon/internal/ckks"
	"poseidon/internal/tracing"
)

// The scheduler is the software analogue of the paper's lanes that are
// never idle: at serving ring sizes a ciphertext has too few limbs for the
// limb pool to fill the machine, so the independent dimension that does is
// the request. One dispatch lane per evaluator worker loops take → execute →
// yield over one FIFO. The unit a lane takes is the hoist group — the head
// job plus, when it is a rotation, every queued rotation of the same tenant
// and the same input bytes, which then share one hoisted digit
// decomposition, the dominant cost of a keyswitch and the only thing two
// requests have ever shared. Dispatch is work-conserving: a lane never waits
// while a job is queued, so groups form from backlog, not from a timer, and
// there is no level rule — a unit is a loop of independent ops, and
// byte-identical inputs are at one level by construction.

// dispatch modes — the degradation ladder.
const (
	modeBatched int32 = iota // normal: hoist groups up to MaxBatch
	modeSerial               // after a guard trip: units of one request
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

	// input is a rotation's ciphertext as it arrived (nil for any other op;
	// the request holds the bytes until it is answered anyway), inputHash
	// their seeded hash: take matches queued rotations of one tenant and one
	// input on them, to run through one hoisted decomposition.
	input     []byte
	inputHash uint64

	// ctx is the request's context (nil = none): an expired job is skipped
	// cheaply by the executor and never re-enqueued by the retry path.
	ctx context.Context
	// attempt counts scheduler-level re-executions of this job after
	// integrity failures (0 = first run).
	attempt int

	// trace is the request's span tree (nil with tracing off; every use is
	// a nil check). The request moves through it as a sequence of stage
	// transitions (RequestTrace.NextStage): queue opens at enqueue (and per
	// retry) and ends where a lane opens exec; deliver opens just
	// before the executor sends on done and ends where the caller, having
	// received, opens finalize — on a saturated machine the caller
	// goroutine's wake-up can lag the result by many milliseconds, and that
	// wait is request wall-clock the tree must account for. Transitions
	// cross goroutines but never concurrently — the enqueue → queue lock →
	// take edge (and the send → receive edge on done) orders each hand-off.
	trace *tracing.RequestTrace

	done chan jobResult // buffered(1): the executor never blocks delivering
}

// inputSeed keys inputHash for the life of the process, so a tenant cannot
// craft rotations that collide and lengthen take's scan under the queue lock.
var inputSeed = maphash.MakeSeed()

// setInput records a rotation's raw ciphertext bytes for sibling matching.
func (j *job) setInput(raw []byte) {
	j.input = raw
	j.inputHash = maphash.Bytes(inputSeed, raw)
}

// sharesHoist reports whether j and k are rotations of one tenant entry and
// the same input bytes: the hash is a prefilter, equality is exact.
func (j *job) sharesHoist(k *job) bool {
	return j.input != nil && k.input != nil && j.entry == k.entry &&
		j.inputHash == k.inputHash && bytes.Equal(j.input, k.input)
}

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
	batch int // size of the unit the job was taken in
	err   error
}

type scheduler struct {
	cfg    Config
	params *ckks.Parameters

	// The dispatch queue: admitted jobs in arrival order (capacity
	// QueueDepth, compacted in place) under one mutex. Lanes sleep on ready
	// while it is empty; closed refuses new work, and done closes once every
	// lane has drained the backlog and exited.
	qmu    sync.Mutex
	ready  sync.Cond
	queue  []*job
	closed bool
	done   chan struct{}

	mode      atomic.Int32
	coolUntil atomic.Int64     // unix nanos; mode decays one rung per elapsed cooldown
	now       func() time.Time // the ladder's clock: time.Now, scripted by tests

	batches     atomic.Uint64   // units taken
	occupancy   []atomic.Uint64 // index = unit size, [0] unused
	hoistGroups atomic.Uint64   // units of ≥2 rotations sharing a decomposition
	hoistShared atomic.Uint64   // decompositions saved by sharing
	guardTrips  atomic.Uint64

	// job-level recovery counters: re-enqueues after integrity failures,
	// jobs that eventually succeeded on a retry, and jobs that exhausted
	// the attempt budget (the only ones that trip the degradation ladder).
	jobRetries       atomic.Uint64
	jobRecovered     atomic.Uint64
	jobUnrecoverable atomic.Uint64

	// testExec, when set (tests only), runs before a job's evaluator call; a
	// non-nil return is delivered as the op's failure in place of evaluating.
	// Degradation tests inject a deterministic integrity fault with it (no
	// global fault injector), dispatch tests hold a lane to build a backlog.
	testExec func(*job) error
}

// lane is one dispatch goroutine: id selects the view of a tenant's
// evaluator it runs on, and sink (nil with tracing off) is the observer that
// view reports to, pointed at each job's trace around its evaluator call.
type lane struct {
	id   int
	sink *tracing.EvalObserver
}

// newScheduler builds a scheduler with no lane running; start launches them.
func newScheduler(cfg Config, params *ckks.Parameters) *scheduler {
	s := &scheduler{
		cfg:       cfg,
		params:    params,
		queue:     make([]*job, 0, cfg.QueueDepth),
		done:      make(chan struct{}),
		occupancy: make([]atomic.Uint64, cfg.MaxBatch+1),
		now:       time.Now,
	}
	s.ready.L = &s.qmu
	return s
}

// start launches one lane per entry of sinks (each nil with tracing off) —
// the caller sizes it by params.Workers(), the one statement of how many
// cores evaluation may use; done closes when the last lane exits.
func (s *scheduler) start(sinks []*tracing.EvalObserver) {
	var wg sync.WaitGroup
	for i, sink := range sinks {
		ln := &lane{id: i, sink: sink}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.run(ln)
		}()
	}
	go func() {
		wg.Wait()
		close(s.done)
	}()
}

// beginExec moves the job from its queue-wait stage into its exec stage,
// pointing the lane's observation sink at this job's trace. Nil-safe
// throughout.
func (ln *lane) beginExec(j *job, batchSize int) tracing.SpanRef {
	ex := j.trace.NextStage("exec")
	j.trace.AnnotateInt(ex, "batch", int64(batchSize))
	if j.attempt > 0 {
		j.trace.AnnotateInt(ex, "attempt", int64(j.attempt+1))
	}
	if ln.sink != nil && j.trace != nil {
		ln.sink.Activate(j.trace, ex)
	}
	return ex
}

// endExec detaches the sink and records the outcome on the exec stage,
// which stays open until the job is delivered or backs off.
func (ln *lane) endExec(j *job, err error) {
	if ln.sink != nil {
		ln.sink.Deactivate()
	}
	j.trace.StageErr(err)
}

// deliver hands the job's outcome back to the waiting caller, opening the
// deliver stage the caller leaves on receive (EvalCtx). done is buffered,
// so the send never blocks a lane.
func (s *scheduler) deliver(j *job, res jobResult) {
	j.trace.NextStage("deliver")
	j.done <- res
}

// enqueue admits a job to the dispatch queue without blocking: a full
// queue is backpressure, reported as ErrOverloaded.
func (s *scheduler) enqueue(j *job) error {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.closed {
		return errOverloadedf("shutting down")
	}
	if len(s.queue) >= s.cfg.QueueDepth {
		return errOverloadedf("dispatch queue full (%d)", s.cfg.QueueDepth)
	}
	s.queue = append(s.queue, j)
	s.ready.Signal()
	return nil
}

// queued returns the number of jobs waiting for a lane.
func (s *scheduler) queued() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue)
}

// stop closes the queue and waits for the lanes to drain every admitted
// job — graceful: queued work completes, new work is refused.
func (s *scheduler) stop() { s.stopCtx(context.Background()) }

// stopCtx is stop with a drain bound: when ctx expires before the lanes
// have drained the queue, stopCtx returns the expiry error with the lanes
// still running (they keep draining in the background — abandoning them
// would strand queued requesters on their done channels). Jobs parked in
// retry backoff are not waited for: their re-enqueue fails against the
// closed queue and delivers the original failure.
func (s *scheduler) stopCtx(ctx context.Context) error {
	s.qmu.Lock()
	s.closed = true
	s.ready.Broadcast()
	s.qmu.Unlock()
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w (%d jobs still queued)", ctx.Err(), s.queued())
	}
}

// currentMode returns the dispatch mode after applying cooldown decay:
// each elapsed DegradeCooldown since the last escalation steps the ladder
// down one rung.
func (s *scheduler) currentMode() int32 {
	now := s.now().UnixNano()
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
			s.coolUntil.Store(s.now().Add(s.cfg.DegradeCooldown).UnixNano())
			return
		}
	}
}

// run is one lane's loop: take a unit, execute it, until the queue is closed
// and drained.
func (s *scheduler) run(ln *lane) {
	for unit := s.take(); unit != nil; unit = s.take() {
		s.execUnit(ln, unit)
	}
}

// take blocks until a job is queued and removes the next unit of dispatch:
// the head job and, when dispatch is batched and the head is a rotation,
// every queued rotation that shares its hoist (same tenant entry, same
// input bytes), in arrival order, at most MaxBatch in all. Everything else
// stays queued in arrival order for the other lanes. It returns nil once
// the queue is closed and drained.
func (s *scheduler) take() []*job {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	for len(s.queue) == 0 {
		if s.closed {
			return nil
		}
		s.ready.Wait()
	}
	head := s.queue[0]
	unit := []*job{head}
	max := 1 // degraded to serial, queued work still drains, one job a unit
	if head.input != nil && s.currentMode() == modeBatched {
		max = s.cfg.MaxBatch
	}
	rest := s.queue[:0]
	for _, j := range s.queue[1:] {
		if len(unit) < max && head.sharesHoist(j) {
			unit = append(unit, j)
		} else {
			rest = append(rest, j)
		}
	}
	clear(s.queue[len(rest):]) // the vacated tail must not pin answered jobs
	s.queue = rest
	return unit
}

// execUnit runs one taken unit on a lane. Members whose context expired
// while queued are answered with that error and skipped; two or more that
// remain share one digit decomposition, and a lone job — or every member,
// when the shared phase fails: none sees a worse outcome than serial
// dispatch — runs through its tenant's evaluator. An integrity failure
// degrades the dispatch mode but never drops the rest of the unit or queue.
func (s *scheduler) execUnit(ln *lane, unit []*job) {
	size := len(unit)
	s.batches.Add(1)
	s.occupancy[min(size, len(s.occupancy)-1)].Add(1)
	live := unit[:0]
	for _, j := range unit {
		if err := j.ctxErr(); err != nil {
			j.trace.StageErr(err) // abandoned while queued
			s.deliver(j, jobResult{batch: size, err: err})
			continue
		}
		live = append(live, j)
	}
	var h *ckks.Hoisted
	if len(live) >= 2 {
		if h = s.hoist(ln, live); h != nil {
			defer h.Release()
		}
	}
	for _, j := range live {
		s.execOne(ln, j, size, h, j == live[0])
		// The yield after each answer is load-bearing. With every core
		// running a lane that goes straight on to its next job, the request
		// goroutine just answered — which must wake, encode the reply and
		// send the next request — waits for a preemption tick instead: p50
		// falls while p99 and the deliver stage balloon, a burst's siblings
		// are never queued together, and throughput drops (DESIGN.md §11).
		runtime.Gosched()
	}
}

// hoist takes the digit decomposition a group's live members share, as the
// leader's first exec work. It returns nil when that fails: the members
// then run individually, where the job-retry path applies; with retries off
// the failure drives the ladder here (execOne sees per-job errors itself).
func (s *scheduler) hoist(ln *lane, group []*job) *ckks.Hoisted {
	lead := group[0]
	hs := lead.trace.NextStage("hoist")
	lead.trace.AnnotateInt(hs, "group", int64(len(group)))
	h, err := lead.entry.evaluator(ln.id).TryHoist(lead.ct)
	if err != nil {
		lead.trace.StageErr(err)
		if !s.retryEnabled() && errors.Is(err, ckks.ErrIntegrity) {
			s.tripGuard()
		}
		return nil
	}
	s.hoistGroups.Add(1)
	s.hoistShared.Add(uint64(len(group) - 1))
	return h
}

// execOne is one job's exec stage: a rotation through h, its unit's shared
// decomposition, when there is one, anything else through the lane's view of
// its tenant's evaluator.
func (s *scheduler) execOne(ln *lane, j *job, batchSize int, h *ckks.Hoisted, lead bool) {
	ex := ln.beginExec(j, batchSize)
	var res *ckks.Ciphertext
	var err error
	if s.testExec != nil {
		err = s.testExec(j)
	}
	switch {
	case err != nil:
	case h != nil:
		role := "shared"
		if lead {
			role = "leader"
		}
		j.trace.Annotate(ex, "hoist", role)
		res, err = h.TryRotate(j.steps)
	default:
		res, err = s.eval(j.entry.evaluator(ln.id), j)
	}
	ln.endExec(j, err)
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
// timer so a lane never sleeps; if the re-enqueue races a closed
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

func (s *scheduler) eval(ev *ckks.Evaluator, j *job) (*ckks.Ciphertext, error) {
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

func errOverloadedf(format string, args ...any) error {
	return fmt.Errorf("server: %w: "+format, append([]any{ErrOverloaded}, args...)...)
}

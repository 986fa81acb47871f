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
// byte-identical inputs are at one level by construction. Dispatch has no
// modes: a fault is answered by running the job again, load by refusing it
// at admission.

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
	// cheaply by the executor and not run again after an integrity failure.
	ctx context.Context

	// trace is the request's span tree (nil with tracing off; every use is
	// a nil check). The request moves through it as a sequence of stage
	// transitions (RequestTrace.NextStage): queue opens at enqueue and ends
	// where a lane opens exec (one exec stage per attempt); deliver opens just
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

	batches     atomic.Uint64   // units taken
	occupancy   []atomic.Uint64 // index = unit size, [0] unused
	hoistGroups atomic.Uint64   // units of ≥2 rotations sharing a decomposition
	hoistShared atomic.Uint64   // decompositions saved by sharing

	// job-level recovery counters: re-runs after integrity failures, jobs
	// that succeeded on a re-run, and jobs answered with ErrIntegrity.
	jobRetries       atomic.Uint64
	jobRecovered     atomic.Uint64
	jobUnrecoverable atomic.Uint64

	// testExec, when set (tests only), runs before each of a job's evaluator
	// calls; a non-nil return is that attempt's failure in place of
	// evaluating. Recovery tests inject a deterministic integrity fault with
	// it (no global fault injector), dispatch tests hold a lane to build a
	// backlog.
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

// beginExec opens the exec stage of a job's attempt-th run (the first ends
// its queue wait), pointing the lane's observation sink at this job's trace.
// Nil-safe throughout.
func (ln *lane) beginExec(j *job, batchSize, attempt int) tracing.SpanRef {
	ex := j.trace.NextStage("exec")
	j.trace.AnnotateInt(ex, "batch", int64(batchSize))
	if attempt > 1 {
		j.trace.AnnotateInt(ex, "attempt", int64(attempt))
	}
	if ln.sink != nil && j.trace != nil {
		ln.sink.Activate(j.trace, ex)
	}
	return ex
}

// endExec detaches the sink and records the outcome on the exec stage,
// which stays open until the job is delivered or runs again.
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
// would strand queued requesters on their done channels).
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

// run is one lane's loop: take a unit, execute it, until the queue is closed
// and drained.
func (s *scheduler) run(ln *lane) {
	for unit := s.take(); unit != nil; unit = s.take() {
		s.execUnit(ln, unit)
	}
}

// take blocks until a job is queued and removes the next unit of dispatch:
// the head job and, when the head is a rotation, every queued rotation that
// shares its hoist (same tenant entry, same input bytes), in arrival order,
// at most MaxBatch in all. Everything else stays queued in arrival order for
// the other lanes. It returns nil once the queue is closed and drained.
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
	rest := s.queue[:0]
	for _, j := range s.queue[1:] {
		if len(unit) < s.cfg.MaxBatch && head.sharesHoist(j) {
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
// dispatch — runs through its tenant's evaluator. An integrity failure of
// one member never drops the rest of the unit or the queue.
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
// then run individually, each through its tenant's evaluator.
func (s *scheduler) hoist(ln *lane, group []*job) *ckks.Hoisted {
	lead := group[0]
	hs := lead.trace.NextStage("hoist")
	lead.trace.AnnotateInt(hs, "group", int64(len(group)))
	h, err := lead.entry.evaluator(ln.id).TryHoist(lead.ct)
	if err != nil {
		lead.trace.StageErr(err)
		return nil
	}
	s.hoistGroups.Add(1)
	s.hoistShared.Add(uint64(len(group) - 1))
	return h
}

// execOne runs one job and delivers its answer. A job that still fails with
// ErrIntegrity after op-level recovery runs again in place, on this lane,
// at most MaxJobAttempts times in all and only while its context lives;
// every run after the first goes through the tenant's evaluator, so a
// hoist-group member gets a fresh decomposition.
func (s *scheduler) execOne(ln *lane, j *job, batchSize int, h *ckks.Hoisted, lead bool) {
	res, err := s.attempt(ln, j, batchSize, 1, h, lead)
	for n := 2; n <= s.cfg.MaxJobAttempts && errors.Is(err, ckks.ErrIntegrity) && j.ctxErr() == nil; n++ {
		s.jobRetries.Add(1)
		if res, err = s.attempt(ln, j, batchSize, n, nil, false); err == nil {
			s.jobRecovered.Add(1)
		}
	}
	if errors.Is(err, ckks.ErrIntegrity) {
		s.jobUnrecoverable.Add(1)
	}
	s.deliver(j, jobResult{ct: res, batch: batchSize, err: err})
}

// attempt is one exec stage of a job: a rotation through h, its unit's
// shared decomposition, when there is one, anything else through the lane's
// view of its tenant's evaluator.
func (s *scheduler) attempt(ln *lane, j *job, batchSize, n int, h *ckks.Hoisted, lead bool) (res *ckks.Ciphertext, err error) {
	ex := ln.beginExec(j, batchSize, n)
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
	return res, err
}

func (s *scheduler) eval(ev *ckks.Evaluator, j *job) (*ckks.Ciphertext, error) {
	switch j.op {
	case OpAdd:
		return ev.TryAddInto(nil, j.ct, j.ct2)
	case OpSub:
		return ev.TrySubInto(nil, j.ct, j.ct2)
	case OpMulRelin:
		return ev.TryMulRelinInto(nil, j.ct, j.ct2)
	case OpRescale:
		return ev.TryRescaleInto(nil, j.ct)
	case OpRotate:
		return ev.TryRotateInto(nil, j.ct, j.steps)
	case OpConjugate:
		return ev.TryConjugateInto(nil, j.ct)
	case OpNegate:
		return ev.TryNegInto(nil, j.ct)
	case OpInnerSum:
		return ev.TryInnerSum(j.ct, j.width) // width checked at admission
	}
	return nil, badf("unexecutable opcode %d", uint64(j.op))
}

func errOverloadedf(format string, args ...any) error {
	return fmt.Errorf("server: %w: "+format, append([]any{ErrOverloaded}, args...)...)
}

package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is the bounded limb-parallel execution engine: the software
// counterpart of the accelerator's 512-lane datapath time-multiplexing its
// operator cores across RNS limbs. Where the hardware hides limb-level
// parallelism inside each operator's lane array, the software hides it
// behind a worker pool that fans independent limbs (or coefficient ranges)
// out across CPUs.
//
// A Pool bounds *concurrency*, not goroutine identity: each parallel Run
// spawns up to Workers−1 short-lived helpers, admitted through a semaphore
// shared by every caller of the same Pool, and the calling goroutine always
// participates in the work. This makes nested or concurrent Run calls
// deadlock-free by construction — when the semaphore is exhausted the
// caller simply runs its items inline.
//
// The zero value of *Pool (nil) is valid and executes serially.
type Pool struct {
	workers int
	sem     chan struct{} // admission tokens for helper goroutines
}

// NewPool creates a pool bounded at `workers` concurrent executors.
// workers ≤ 0 selects runtime.GOMAXPROCS(0); workers == 1 is fully serial.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.sem = make(chan struct{}, workers-1)
	}
	return p
}

// Workers reports the pool's concurrency bound. A nil pool is serial.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

var (
	defaultPoolOnce sync.Once
	defaultPool     *Pool
)

// DefaultPool returns the package-level shared pool, sized by
// runtime.GOMAXPROCS at first use. Parameters and evaluators that do not
// override their worker count all draw from this one bounded pool, so the
// process-wide limb-parallelism never exceeds the machine.
func DefaultPool() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Run is the pool's one executor: it calls stage(s, i) for every i in
// [0, n) and returns when all are done. Items are claimed from a shared
// atomic counter, so scheduling is dynamic but each index runs exactly once.
// stage must not depend on execution order; writes to disjoint locations
// give results bit-identical to a serial loop.
//
// Handing it a method expression ((*T).stage) and a pooled record means the
// serial path — a plain loop, taken on a serial pool or for one item —
// builds no closure and allocates nothing, so a pipeline stage is written
// once. s escapes (the helpers share it): pass heap records, not the address
// of a local.
//
// Safe for concurrent use, including nested calls (inner calls degrade to
// inline execution when the pool is saturated). A panic inside stage stops
// the other executors claiming items and is re-raised, with its original
// value, on the calling goroutine (the first one, if several items panic).
func Run[S any](p *Pool, n int, s *S, stage func(*S, int)) {
	if p.Workers() <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			stage(s, i)
		}
		return
	}
	d := &dispatch[S]{n: int64(n), s: s, stage: stage}
	for range min(p.workers-1, n-1) {
		select {
		case p.sem <- struct{}{}:
			d.wg.Add(1)
			go func() {
				defer func() { <-p.sem; d.wg.Done() }()
				d.claim()
			}()
		default:
			// Pool saturated: the caller picks up the slack inline.
		}
	}
	d.claim()
	d.wg.Wait()
	if d.panicked != nil {
		panic(d.panicked)
	}
}

// dispatch is one parallel Run: the claim counter its executors share, the
// first panic one of them recovered, and the helpers the caller waits for.
type dispatch[S any] struct {
	next     atomic.Int64
	n        int64
	s        *S
	stage    func(*S, int)
	mu       sync.Mutex
	panicked any
	wg       sync.WaitGroup
}

// claim runs items until none is left; a panic ends the claiming for every
// executor.
func (d *dispatch[S]) claim() {
	defer func() {
		if r := recover(); r != nil {
			d.mu.Lock()
			if d.panicked == nil {
				d.panicked = r
			}
			d.mu.Unlock()
			d.next.Store(d.n)
		}
	}()
	for i := d.next.Add(1) - 1; i < d.n; i = d.next.Add(1) - 1 {
		d.stage(d.s, int(i))
	}
}

// RunChunks is Run for stages whose unit of independence is the coefficient
// rather than the limb (RNSconv, ModDown, Rescale): stage(s, lo, hi) covers
// [0, n) exactly once, as the single range [0, n) on a serial pool and as
// contiguous ranges claimed through Run otherwise. Chunk boundaries never
// affect results: every coefficient's arithmetic is self-contained.
func RunChunks[S any](p *Pool, n int, s *S, stage func(*S, int, int)) {
	w := p.Workers()
	if w <= 1 || n <= 1 {
		if n > 0 {
			stage(s, 0, n)
		}
		return
	}
	// Oversubscribe chunks 4× the worker count so dynamic claiming
	// balances uneven progress without shrinking chunks into cache churn.
	chunks := min(4*w, n)
	size := (n + chunks - 1) / chunks
	Run(p, (n+size-1)/size, s, func(s *S, c int) { stage(s, c*size, min(c*size+size, n)) })
}

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
// A Pool bounds *concurrency*, not goroutine identity: each ForEach call
// spawns up to Workers−1 short-lived helpers, admitted through a semaphore
// shared by every caller of the same Pool, and the calling goroutine always
// participates in the work. This makes nested or concurrent ForEach calls
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

// ForEach runs fn(i) for every i in [0, n), distributing indices across the
// pool's workers, and returns when all items are done. Items are claimed
// from a shared atomic counter, so scheduling is dynamic but each index runs
// exactly once. fn must not depend on execution order; writes to disjoint
// locations give results bit-identical to a serial loop.
//
// Safe for concurrent use, including nested calls (inner calls degrade to
// inline execution when the pool is saturated). A panic inside fn stops the
// other executors claiming items and is re-raised, with its original value,
// on the calling goroutine (the first one, if several items panic).
func (p *Pool) ForEach(n int, fn func(i int)) {
	if p == nil || p.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var mu sync.Mutex
	var panicked any // the first panic value an executor recovered
	loop := func() {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if panicked == nil {
					panicked = r
				}
				mu.Unlock()
				next.Store(int64(n))
			}
		}()
		for i := next.Add(1) - 1; i < int64(n); i = next.Add(1) - 1 {
			fn(int(i))
		}
	}

	helpers := min(p.workers-1, n-1)
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		select {
		case p.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-p.sem; wg.Done() }()
				loop()
			}()
		default:
			// Pool saturated: the caller picks up the slack inline.
		}
	}
	loop()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Run is the stage runner for pipelines that keep their per-call state in one
// record: it calls stage(s, i) for every i in [0, n) — a plain loop on a
// serial pool, ForEach otherwise. Handing it a method expression
// ((*T).stage) and a pooled record means the serial path builds no closure
// and allocates nothing, so a pipeline stage is written once instead of as a
// loop and a ForEach twin. s escapes (the parallel branch captures it): pass
// heap records, not the address of a local.
func Run[S any](p *Pool, n int, s *S, stage func(*S, int)) {
	if p.Workers() <= 1 {
		for i := 0; i < n; i++ {
			stage(s, i)
		}
		return
	}
	p.ForEach(n, func(i int) { stage(s, i) })
}

// RunChunks is Run for stages whose unit of independence is a coefficient
// range: stage(s, lo, hi) covers [0, n) exactly once, as the single range
// [0, n) on a serial pool and as ForEachChunk's ranges otherwise.
func RunChunks[S any](p *Pool, n int, s *S, stage func(*S, int, int)) {
	if p.Workers() <= 1 {
		if n > 0 {
			stage(s, 0, n)
		}
		return
	}
	p.ForEachChunk(n, func(lo, hi int) { stage(s, lo, hi) })
}

// ForEachChunk partitions [0, n) into contiguous ranges and runs
// fn(lo, hi) on each, parallelized like ForEach. Used for operations whose
// unit of independence is the coefficient rather than the limb (RNSconv,
// ModDown, Rescale). Chunk boundaries never affect results: every
// coefficient's arithmetic is self-contained.
func (p *Pool) ForEachChunk(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w := p.Workers()
	if w <= 1 || n == 1 {
		fn(0, n)
		return
	}
	// Oversubscribe chunks 4× the worker count so dynamic claiming
	// balances uneven progress without shrinking chunks into cache churn.
	chunks := 4 * w
	if chunks > n {
		chunks = n
	}
	size := (n + chunks - 1) / chunks
	chunks = (n + size - 1) / size
	p.ForEach(chunks, func(c int) {
		lo := c * size
		hi := lo + size
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

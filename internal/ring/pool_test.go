package ring

import (
	"sync"
	"sync/atomic"
	"testing"
)

// The executor tests keep the names they had when Pool.ForEach and
// ForEachChunk were the dispatchers; Run and RunChunks are now the only two.

// Every index runs exactly once, at every pool width.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, pool := range testPools() {
		for _, n := range []int{0, 1, 2, 3, 17, 100, 1000} {
			p := &runProbe{hits: make([]int32, n), boom: -1}
			Run(pool, n, p, (*runProbe).stage)
			p.requireOnce(t, "Run", pool.Workers())
		}
	}
}

// Every range is inside [0, n) and non-empty, and together they cover it
// exactly once.
func TestForEachChunkCoversEveryIndexOnce(t *testing.T) {
	for _, pool := range testPools() {
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			p := &runProbe{hits: make([]int32, n), boom: -1}
			RunChunks(pool, n, p, func(p *runProbe, lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
					return
				}
				p.chunk(lo, hi)
			})
			p.requireOnce(t, "RunChunks", pool.Workers())
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, pool := range []*Pool{nil, NewPool(4)} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", pool.Workers(), r)
				}
			}()
			Run(pool, 64, &runProbe{hits: make([]int32, 64), boom: 13}, (*runProbe).stage)
		}()
	}
}

// TestForEachNested ensures nested Run calls complete rather than deadlock
// when the pool is saturated (inner calls degrade to inline).
func TestForEachNested(t *testing.T) {
	pool := NewPool(2)
	var total atomic.Int64
	Run(pool, 8, &total, func(total *atomic.Int64, i int) {
		Run(pool, 8, total, func(total *atomic.Int64, j int) { total.Add(1) })
	})
	if total.Load() != 64 {
		t.Fatalf("nested Run ran %d items, want 64", total.Load())
	}
}

// TestForEachConcurrent hammers one shared pool from many goroutines; run
// under -race this proves the claiming counter and semaphore are sound.
func TestForEachConcurrent(t *testing.T) {
	pool := NewPool(4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			Run(pool, 100, &sum, func(sum *atomic.Int64, i int) { sum.Add(int64(i)) })
			if sum.Load() != 4950 {
				t.Error("concurrent Run lost items")
			}
		}()
	}
	wg.Wait()
}

func TestPoolWorkers(t *testing.T) {
	if w := (*Pool)(nil).Workers(); w != 1 {
		t.Errorf("nil pool workers = %d, want 1", w)
	}
	if w := NewPool(1).Workers(); w != 1 {
		t.Errorf("NewPool(1).Workers() = %d, want 1", w)
	}
	if w := NewPool(7).Workers(); w != 7 {
		t.Errorf("NewPool(7).Workers() = %d, want 7", w)
	}
	if w := NewPool(0).Workers(); w < 1 {
		t.Errorf("NewPool(0).Workers() = %d, want ≥ 1 (GOMAXPROCS)", w)
	}
	if DefaultPool() != DefaultPool() {
		t.Error("DefaultPool must return a stable singleton")
	}
}

// The original panic value — not a wrapper — is re-raised on the caller, at
// any pool width and through either entry point.
func TestForEachStillRethrowsOriginalPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		for name, run := range map[string]func(){
			"Run":       func() { Run(p, 32, &runProbe{hits: make([]int32, 32), boom: 7}, (*runProbe).stage) },
			"RunChunks": func() { RunChunks(p, 32, &runProbe{hits: make([]int32, 32), boom: 7}, (*runProbe).chunk) },
		} {
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s workers=%d: recovered %v, want the original panic value", name, workers, r)
					}
				}()
				run()
			}()
		}
	}
}

// runProbe is the state record the stage-runner tests dispatch over: a stage
// is a method expression on it, exactly how the evaluator's pipelines use
// Run and RunChunks.
type runProbe struct {
	hits  []int32
	boom  int // index at which a stage panics; −1 never
	calls atomic.Int32
}

func (p *runProbe) stage(i int) {
	if i == p.boom {
		panic("boom")
	}
	atomic.AddInt32(&p.hits[i], 1)
}

func (p *runProbe) chunk(lo, hi int) {
	p.calls.Add(1)
	for i := lo; i < hi; i++ {
		p.stage(i)
	}
}

func (p *runProbe) requireOnce(t *testing.T, what string, workers int) {
	t.Helper()
	for i, h := range p.hits {
		if h != 1 {
			t.Fatalf("%s workers=%d n=%d: index %d covered %d times", what, workers, len(p.hits), i, h)
		}
	}
}

// TestRun: every index is visited exactly once at workers 1, 2, 7 and
// n ∈ {0, 1, prime}; a stage panic is re-raised on the caller; and the serial
// path allocates nothing — the property the evaluator's 0 allocs/op gates
// rest on.
func TestRun(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		pool := NewPool(workers)
		for _, n := range []int{0, 1, 13, 1009} {
			p := &runProbe{hits: make([]int32, n), boom: -1}
			Run(pool, n, p, (*runProbe).stage)
			p.requireOnce(t, "Run", workers)
		}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("Run workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			Run(pool, 64, &runProbe{hits: make([]int32, 64), boom: 13}, (*runProbe).stage)
		}()
	}
	p := &runProbe{hits: make([]int32, 64), boom: -1}
	for _, pool := range []*Pool{nil, NewPool(1)} {
		if allocs := testing.AllocsPerRun(10, func() { Run(pool, 64, p, (*runProbe).stage) }); allocs != 0 {
			t.Errorf("Run at workers=1: %v allocs/op, want 0", allocs)
		}
	}
}

// TestRunChunks: the ranges cover [0, n) exactly once (a serial pool gets the
// one range [0, n), n = 0 gets no call at all), a stage panic is re-raised on
// the caller, and the serial path allocates nothing.
func TestRunChunks(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		pool := NewPool(workers)
		for _, n := range []int{0, 1, 13, 1009} {
			p := &runProbe{hits: make([]int32, n), boom: -1}
			RunChunks(pool, n, p, (*runProbe).chunk)
			p.requireOnce(t, "RunChunks", workers)
			if calls := int(p.calls.Load()); (n == 0 && calls != 0) || (workers == 1 && n > 0 && calls != 1) {
				t.Errorf("RunChunks workers=%d n=%d: %d stage calls", workers, n, calls)
			}
		}
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("RunChunks workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			RunChunks(pool, 64, &runProbe{hits: make([]int32, 64), boom: 13}, (*runProbe).chunk)
		}()
	}
	p := &runProbe{hits: make([]int32, 64), boom: -1}
	for _, pool := range []*Pool{nil, NewPool(1)} {
		if allocs := testing.AllocsPerRun(10, func() { RunChunks(pool, 64, p, (*runProbe).chunk) }); allocs != 0 {
			t.Errorf("RunChunks at workers=1: %v allocs/op, want 0", allocs)
		}
	}
}

// One parallel dispatch's allocations at two workers — the baseline a
// replacement executor is measured against: Run's shared claim record and
// its helper's closure; RunChunks adds the closure that cuts the ranges. The
// bounds are ≤: a helper the saturated pool does not admit allocates nothing.
func TestRunDispatchAllocs(t *testing.T) {
	pool := NewPool(2)
	for _, n := range []int{2, 6, 28} {
		p := &runProbe{hits: make([]int32, n), boom: -1}
		if allocs := testing.AllocsPerRun(50, func() { Run(pool, n, p, (*runProbe).stage) }); allocs > 2 {
			t.Errorf("Run n=%d at workers=2: %v allocs a dispatch, want ≤ 2", n, allocs)
		}
	}
	p := &runProbe{hits: make([]int32, 8192), boom: -1}
	if allocs := testing.AllocsPerRun(50, func() { RunChunks(pool, 8192, p, (*runProbe).chunk) }); allocs > 3 {
		t.Errorf("RunChunks n=8192 at workers=2: %v allocs a dispatch, want ≤ 3", allocs)
	}
}

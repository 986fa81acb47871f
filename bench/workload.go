package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"runtime"
	"time"
)

// env is everything a workload's set-up is allowed to depend on. The seed
// generates messages, matrices, ciphertext pools and tenant phase offsets;
// the program under test only ever sees the generated inputs.
type env struct {
	seed  int64
	smoke bool // tiny rings: the same programs in milliseconds
}

func (e env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1_000_003 + stream))
}

func (e env) rung(r rung) rung {
	if e.smoke {
		return r.shrunk()
	}
	return r
}

// segResult is one timed segment: the latency of every unit op that
// completed in it, how many were attempted and failed (an error, a non-200,
// a refusal), and the wall time from the first op's start to the last op's
// end.
type segResult struct {
	latMs     []float64
	attempted int
	failed    int
	wall      time.Duration
}

// validation is the outcome of decrypting retained outputs and comparing
// them with the cleartext evaluation of the same program.
type validation struct {
	checked int
	bad     int     // outputs with fewer than minPrecisionBits
	maxErr  float64 // worst slot error over the outputs checked
}

func (v *validation) merge(o validation) {
	v.checked += o.checked
	v.bad += o.bad
	if o.maxErr > v.maxErr {
		v.maxErr = o.maxErr
	}
}

// minPrecisionBits is the floor below which an output counts as wrong.
const minPrecisionBits = 8

// check compares one decrypted output with its reference.
func (v *validation) check(got, want []complex128) {
	worst := 0.0
	for i := range want {
		e := cmplx.Abs(got[i] - want[i])
		if math.IsNaN(e) {
			e = math.MaxFloat64 // garbage, but still a number the result can carry
		}
		worst = max(worst, e)
	}
	v.checked++
	if precisionBits(worst) < minPrecisionBits {
		v.bad++
	}
	v.maxErr = max(v.maxErr, worst)
}

// instance is one workload, set up and ready to run.
type instance interface {
	// runSegment runs unit ops for about d. With a non-nil tracer every
	// call the harness makes into a layer is recorded as a span.
	runSegment(d time.Duration, tr *tracer) segResult
	// validate decrypts the outputs retained since the previous call and
	// checks them against the cleartext program. It runs with the clock
	// stopped.
	validate() validation
	close()
}

// workloadDef names a workload and says why it is in the benchmark.
type workloadDef struct {
	Name  string
	Rung  rung
	Unit  string // the unit op, in words
	Why   string
	setup func(e env) (instance, error)
}

var workloadDefs = []workloadDef{
	{
		Name: "cmult_chain", Rung: rungP13,
		Unit:  "one depth-5 squaring chain, level 5 to 0, MulRelinInto+RescaleInto into preallocated destinations, one caller",
		Why:   "relinearisation keyswitch, tensor product and rescale at large N; no automorphism, hoisting or server: bypasses every rotation-side change",
		setup: setupChain,
	},
	{
		Name: "lintrans_bsgs", Rung: rungP13,
		Unit:  "one EvaluateLinearTransformInto of a 128-diagonal banded 4096x4096 matrix, one caller",
		Why:   "hoisted decomposition, automorphism, wide MAC and Q.P ModDown; no relinearisation: same keyswitch/NTT layers as cmult_chain, used differently",
		setup: setupLinTrans,
	},
	{
		Name: "bootstrap_deep", Rung: rungB9,
		Unit:  "one Bootstrapper.Bootstrap of a level-0 ciphertext, one caller",
		Why:   "the paper's headline workload: 28+5 limbs at small N, L1-resident, so limb scheduling and per-op fixed overhead show and memory passes do not",
		setup: setupBootstrap,
	},
	{
		Name: "serve_bursts", Rung: rungS11,
		Unit:  "one HTTP eval request; 4 tenants, closed loop, each issuing rotations by 1,2,4,8 of one pooled ciphertext concurrently",
		Why:   "16 requests in flight = MaxBatch: batching, digest-keyed hoist sharing, registry and dispatcher do the distinguishing work",
		setup: setupServeBursts,
	},
	{
		Name: "serve_chain", Rung: rungS11,
		Unit:  "one HTTP eval request; 8 tenants, closed loop, one request in flight each, a dependent mulrelin-rescale-rotate-add program fed by its own responses",
		Why:   "no two requests share a ciphertext and batches split by level: wire codec and scheduler floor dominate; bypasses hoist sharing and batching changes",
		setup: setupServeChain,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range workloadDefs {
		if d.Name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// runSerial is the one-caller segment loop of the library workloads: op is
// called back to back until d has passed. A panic escaping the evaluator's
// Into surface is a failed op, not a dead benchmark.
func runSerial(d time.Duration, op func(id int32) error) segResult {
	var r segResult
	start := time.Now()
	for {
		t0 := time.Now()
		if t0.Sub(start) >= d {
			break
		}
		err := guarded(op, int32(r.attempted))
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.latMs = append(r.latMs, float64(time.Since(t0))/1e6)
	}
	r.wall = time.Since(start)
	return r
}

func guarded(op func(id int32) error, id int32) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return op(id)
}

// liveHeapMB is HeapAlloc after a full collection while the caller keeps
// the workload referenced. The ring arenas' free lists and checked-out
// scratch are ordinary Go heap, so they are inside this figure already.
func liveHeapMB(inst instance) float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(inst)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// unitCircle fills a slot vector with points of modulus r.
func unitCircle(rng *rand.Rand, n int, r float64) []complex128 {
	z := make([]complex128, n)
	for i := range z {
		z[i] = cmplx.Rect(r, 2*math.Pi*rng.Float64())
	}
	return z
}

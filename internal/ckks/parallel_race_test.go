package ckks

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Concurrency tests for the shared-evaluator contract. These are designed to
// FAIL UNDER `go test -race` if any shared state is written without
// synchronization: the lazily built caches (HFAuto maps, NTT Galois
// permutations, RNS digit extenders), the sync.Pool scratch allocators, and
// the worker pool's admission path. Without -race they also assert
// bit-identical results, so an unsynchronized cache that corrupts data (not
// just races benignly) fails everywhere.

// raceContext: one parameter set + one fully keyed evaluator, shared by all
// goroutines — the documented concurrent-use pattern.
type raceContext struct {
	params *Parameters
	enc    *Encoder
	encr   *Encryptor
	decr   *Decryptor
	ev     *Evaluator
}

func newRaceContext(t testing.TB) *raceContext {
	t.Helper()
	// Small ring so -race's ~10× slowdown stays tolerable; two special
	// primes so keyswitching has multiple digits.
	params, err := NewParameters(ParametersLiteral{
		LogN:     8,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kgen := NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1, -1, 2, -2}, true)
	return &raceContext{
		params: params,
		enc:    NewEncoder(params),
		encr:   NewEncryptor(params, pk, 43),
		decr:   NewDecryptor(params, sk),
		ev:     NewEvaluator(params, rlk, rtk),
	}
}

// TestConcurrentEvaluationsShareEvaluator runs the full op mix on one
// evaluator from many goroutines, each against a serially precomputed
// expected result. Exercises: concurrent NTT table reads, concurrent lazy
// HFAuto/permutation cache fills (first touch of each Galois element races
// on purpose), pool reuse under contention, and the keyswitch scratch pools.
func TestConcurrentEvaluationsShareEvaluator(t *testing.T) {
	rc := newRaceContext(t)
	const goroutines = 8

	type job struct {
		ct   *Ciphertext
		want *Ciphertext
		name string
	}
	serial := rc.ev.WithWorkers(1)
	jobs := make([]job, goroutines)
	for i := range jobs {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		z := randomComplex(rng, rc.params.Slots, 1.0)
		ct := rc.encr.Encrypt(rc.enc.Encode(z, rc.params.MaxLevel(), rc.params.Scale))
		step := []int{1, -1, 2, -2}[i%4]
		// Precompute the expected result serially, before any concurrency.
		x := serial.Rescale(serial.MulRelin(ct, ct))
		x = serial.Add(x, serial.Rotate(x, step))
		x = serial.Conjugate(x)
		jobs[i] = job{ct: ct, want: x, name: fmt.Sprintf("job%d/step%d", i, step)}
	}

	// Fresh evaluator so every lazy cache starts cold and the first fills
	// happen concurrently.
	ev := serial.WithWorkers(runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := jobs[i]
			step := []int{1, -1, 2, -2}[i%4]
			x := ev.Rescale(ev.MulRelin(j.ct, j.ct))
			x = ev.Add(x, ev.Rotate(x, step))
			x = ev.Conjugate(x)
			if x.Level != j.want.Level || x.Scale != j.want.Scale || !x.C0.Equal(j.want.C0) || !x.C1.Equal(j.want.C1) {
				errs[i] = fmt.Errorf("%s: concurrent result differs from serial precompute", j.name)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentHoistedRotations hits the hoisting path — the heaviest user
// of pooled scratch (digit buffers, permutation vectors, accumulators) —
// from many goroutines at once on one shared evaluator.
func TestConcurrentHoistedRotations(t *testing.T) {
	rc := newRaceContext(t)
	steps := []int{1, -1, 2}
	rng := rand.New(rand.NewSource(21))
	z := randomComplex(rng, rc.params.Slots, 1.0)
	ct := rc.encr.Encrypt(rc.enc.Encode(z, rc.params.MaxLevel(), rc.params.Scale))
	want := rotateHoisted(rc.ev.WithWorkers(1), ct, steps)

	const goroutines = 6
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got := rotateHoisted(rc.ev, ct, steps)
			for _, s := range steps {
				g, w := got[s], want[s]
				if !g.C0.Equal(w.C0) || !g.C1.Equal(w.C1) {
					errs[i] = fmt.Errorf("goroutine %d: hoisted step %d differs", i, s)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentEvaluatorVariants runs differently-configured views of the
// SAME underlying params/keys (WithWorkers shares everything but the pool)
// concurrently — the shape a server takes when it sizes pools per request
// class. All variants must agree bit-for-bit.
func TestConcurrentEvaluatorVariants(t *testing.T) {
	rc := newRaceContext(t)
	rng := rand.New(rand.NewSource(31))
	z := randomComplex(rng, rc.params.Slots, 1.0)
	ct := rc.encr.Encrypt(rc.enc.Encode(z, rc.params.MaxLevel(), rc.params.Scale))
	want := rc.ev.WithWorkers(1).Rescale(rc.ev.WithWorkers(1).MulRelin(ct, ct))

	workerCounts := []int{1, 2, 3, runtime.GOMAXPROCS(0), 16}
	var wg sync.WaitGroup
	errs := make([]error, len(workerCounts))
	for i, w := range workerCounts {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			ev := rc.ev.WithWorkers(w)
			got := ev.Rescale(ev.MulRelin(ct, ct))
			if !got.C0.Equal(want.C0) || !got.C1.Equal(want.C1) {
				errs[i] = fmt.Errorf("workers=%d: result differs", w)
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestConcurrentEncodeEvaluate mixes encoding (NTT on fresh polys) with
// evaluation on the same params object, checking the params-level scratch
// pools (extended-digit buffers) under cross-operation contention.
func TestConcurrentEncodeEvaluate(t *testing.T) {
	rc := newRaceContext(t)
	rng := rand.New(rand.NewSource(41))
	z := randomComplex(rng, rc.params.Slots, 1.0)
	ct := rc.encr.Encrypt(rc.enc.Encode(z, rc.params.MaxLevel(), rc.params.Scale))

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			local := rand.New(rand.NewSource(int64(50 + i)))
			for k := 0; k < 3; k++ {
				zz := randomComplex(local, rc.params.Slots, 1.0)
				pt := rc.enc.Encode(zz, rc.params.MaxLevel(), rc.params.Scale)
				_ = rc.ev.Rescale(rc.ev.MulPlain(ct, pt))
				_ = rc.ev.Rotate(ct, 2)
			}
		}(i)
	}
	wg.Wait()
}

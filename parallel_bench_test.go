package poseidon

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Benchmarks for the limb-parallel execution engine: every sub-benchmark
// runs once with workers=1 (serial reference) and once with
// workers=GOMAXPROCS, on the paper-scale N=2^12, 6-limb parameter set.
// Results are bit-identical across worker counts (see the differential
// suite in internal/ckks), so the delta is pure execution-engine speedup.
// Run with `go test -bench=Parallel -benchmem`; numbers are recorded in
// EXPERIMENTS.md. On a single-core runner (GOMAXPROCS=1) the two
// configurations coincide and the ratio is ~1.0×.

func parallelBenchKit(b *testing.B) *Kit {
	b.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN:     12,
		LogQ:     []int{55, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		b.Fatal(err)
	}
	return NewKit(params, 17)
}

// benchWorkerCounts: the serial reference and the full machine.
func benchWorkerCounts() []int {
	counts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		counts = append(counts, p)
	} else {
		counts = append(counts, 1) // single-core: both runs serial, ratio 1.0×
	}
	return counts
}

func BenchmarkParallelEvaluator(b *testing.B) {
	kit := parallelBenchKit(b)
	rng := rand.New(rand.NewSource(23))
	z := make([]float64, kit.Params.Slots)
	for i := range z {
		z[i] = rng.Float64()*2 - 1
	}
	ct1 := kit.EncryptReals(z)
	ct2 := kit.EncryptReals(z)
	hoistSteps := []int{1, -1, 2, -2, 4, -4, 8, -8}

	cases := []struct {
		name string
		run  func(ev *Evaluator)
	}{
		{"CMult", func(ev *Evaluator) { ev.MulRelin(ct1, ct2) }},
		{"Keyswitch", func(ev *Evaluator) { ev.Rotate(ct1, 1) }},
		{"RotateHoisted8", func(ev *Evaluator) {
			h := ev.Hoist(ct1)
			for _, s := range hoistSteps {
				h.Rotate(s)
			}
			h.Release()
		}},
		{"Rescale", func(ev *Evaluator) { ev.Rescale(ct1) }},
	}
	for _, tc := range cases {
		for _, w := range benchWorkerCounts() {
			ev := kit.Eval.WithWorkers(w)
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.run(ev)
				}
			})
		}
	}
}

// BenchmarkParallelBootstrapSlot refreshes one exhausted ciphertext — the
// deepest pipeline in the library (ModRaise → CoeffToSlot → EvalMod →
// SlotToCoeff), dominated by hoisted rotations and keyswitches.
func BenchmarkParallelBootstrapSlot(b *testing.B) {
	logQ := []int{55}
	for i := 0; i < 27; i++ {
		logQ = append(logQ, 45)
	}
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     logQ,
		LogP:     []int{52, 52, 52, 52, 52},
		LogScale: 45,
	})
	if err != nil {
		b.Fatal(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 11)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 12)
	boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	ct := encr.Encrypt(enc.Encode(z, 0, params.Scale))

	for _, w := range benchWorkerCounts() {
		boot.SetWorkers(w)
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := boot.Bootstrap(ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

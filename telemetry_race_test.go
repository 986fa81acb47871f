package poseidon

import (
	"sync"
	"testing"
)

// Two goroutines hammering a shared kit's evaluator under telemetry must
// lose no observations: the histogram totals equal the op counts both
// goroutines performed. Run under -race (the CI race step includes this
// package) this also proves the collector's lock-free record path is sound.
func TestTelemetryConcurrentEvaluators(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 701)
	collector := kit.EnableTelemetry("race")

	const perG, goroutines = 50, 2
	ct := kit.EncryptReals([]float64{1, 2, 3, 4})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				x := kit.Eval.Add(ct, ct)     // HAdd
				y := kit.Eval.MulRelin(x, ct) // CMult
				_ = kit.Eval.Rescale(y)       // Rescale
				_ = kit.Eval.Rotate(ct, 1)    // Rotation
			}
		}(g)
	}
	wg.Wait()

	agg := collector.Snapshot().ByKind()
	const want = perG * goroutines
	for _, op := range []string{"HAdd", "CMult", "Rescale", "Rotation"} {
		found := false
		for _, ks := range agg {
			if ks.Op != op {
				continue
			}
			found = true
			if ks.Count != want {
				t.Errorf("%s: %d ops observed, want %d", op, ks.Count, want)
			}
			if ks.SumNs == 0 || ks.MaxNs == 0 {
				t.Errorf("%s: timed samples lost their durations: %+v", op, ks)
			}
		}
		if !found {
			t.Errorf("no %s telemetry recorded", op)
		}
	}
	if unknown := collector.Snapshot().UnknownOps; unknown != 0 {
		t.Errorf("collector dropped %d observations as unknown", unknown)
	}
}

package poseidon

import (
	"testing"

	"poseidon/internal/tracing"
)

// TestZeroAllocChainObserved is internal/ckks TestZeroAllocChain with the
// production observers installed: the same Into-chain on a serial evaluator
// stays at exactly 0 heap allocations per run while a telemetry collector
// records every op, and while the request tracer's sink rides beside it with
// no request traced — what every unsampled request of a tracing daemon runs
// under. (What they cost in time is ckks.observer_overhead_pct and
// tracing.overhead_pct.* in bench/.)
func TestZeroAllocChainObserved(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     9,
		LogQ:     []int{55, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
		Workers:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 42)
	ev, level := kit.Eval, params.MaxLevel()
	ct1 := kit.EncryptReals([]float64{1, 2, 3, 4})
	ct2 := kit.EncryptReals([]float64{4, 3, 2, 1})
	prod := NewCiphertext(params, level)
	dropped := NewCiphertext(params, level-1)
	rot := NewCiphertext(params, level-1)
	acc := NewCiphertext(params, level-1)
	chain := func() {
		ev.MulRelinInto(prod, ct1, ct2)
		ev.RescaleInto(dropped, prod)
		ev.RotateInto(rot, dropped, 1)
		ev.AddInto(acc, dropped, rot)
	}

	collector := NewCollector("alloc")
	for _, row := range []struct {
		name string
		obs  OpSink
	}{
		{"collector", collector},
		{"collector+idle-tracer", Fanout(collector, new(tracing.EvalObserver))},
	} {
		t.Run(row.name, func(t *testing.T) {
			ev.SetObserver(row.obs)
			defer ev.SetObserver(nil)
			// The warm-up run materializes the collector's histograms.
			if allocs := testing.AllocsPerRun(10, chain); allocs != 0 {
				t.Errorf("observed chain: %v allocs/op, want 0", allocs)
			}
		})
	}
	if len(collector.Snapshot().ByKind()) == 0 {
		t.Fatal("collector saw no ops: the gate measured an unobserved chain")
	}
}

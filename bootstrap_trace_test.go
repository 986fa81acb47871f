package poseidon

import (
	"math/rand"
	"testing"

	"poseidon/internal/trace"
	"poseidon/internal/tracing"
)

// Validate the hand-built PackedBootstrapping workload trace against the
// real implementation: run the functional bootstrapper under a recorder
// and compare the operation mix. The workload generator models the big-N
// configuration, so absolute counts differ, but the structure — rotations
// and plaintext multiplications in the transforms, ciphertext products in
// EvalMod, rescales throughout — must match.
func TestWorkloadTraceMatchesRealBootstrap(t *testing.T) {
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
		t.Fatal(err)
	}
	enc := NewEncoder(params)
	kgen := NewKeyGenerator(params, 700)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	encr := NewEncryptor(params, pk, 701)

	boot, err := NewBootstrapper(params, enc, kgen, sk, BootstrapConfig{K: 28})
	if err != nil {
		t.Fatal(err)
	}
	// All three in-tree observers ride the evaluator. Bootstrap runs its two
	// EvalMod halves concurrently, so each hears from two goroutines at once:
	// that they can is what this test is for under -race.
	rec := NewTraceRecorder("recorded-bootstrap")
	collector := NewCollector("recorded-bootstrap")
	rt := tracing.NewRequest(tracing.NewContext(), "bootstrap")
	spans := new(tracing.EvalObserver)
	spans.Activate(rt, rt.Root())
	boot.Evaluator().SetObserver(Fanout(rec, collector, spans))

	rng := rand.New(rand.NewSource(702))
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	ct := encr.Encrypt(enc.Encode(z, 0, params.Scale))
	if _, err := boot.Bootstrap(ct); err != nil {
		t.Fatal(err)
	}

	recorded := rec.Trace().CountByKind()
	t.Logf("recorded bootstrap op mix: %v", recorded)
	if got := collector.Snapshot().ByKind()[trace.CMult].Count; float64(got) != recorded[trace.CMult] {
		t.Errorf("collector counted %d CMult, recorder %v", got, recorded[trace.CMult])
	}
	if got := len(rt.Finish(200, nil).Spans); got <= int(recorded[trace.CMult]) {
		t.Errorf("request trace holds %d spans for %v CMult alone", got, recorded[trace.CMult])
	}

	// Structural claims the workload generator encodes:
	// every kind it emits must actually occur in the real pipeline.
	for _, k := range []trace.Kind{trace.HAdd, trace.PMult, trace.CMult, trace.Rotation, trace.Rescale} {
		if recorded[k] == 0 {
			t.Errorf("real bootstrap performed no %v, but the workload trace models them", k)
		}
	}
	// CMult count is driven by the Chebyshev products; the generator models
	// ~14 per EvalMod half at full packing. The real run (degree ~216 sine
	// at N=2^9) lands in the tens — same order.
	if recorded[trace.CMult] < 10 || recorded[trace.CMult] > 400 {
		t.Errorf("recorded CMult count %v outside the modeled order of magnitude", recorded[trace.CMult])
	}
	// The slot transforms run on the double-hoisted engine, which records
	// one LinTrans op per giant-step group instead of a Rotation per BSGS
	// step; together with the remaining explicit rotations they must still
	// dominate the CMult count (the transform share of the pipeline).
	if recorded[trace.LinTrans] == 0 {
		t.Error("real bootstrap recorded no LinTrans groups from the slot transforms")
	}
	if recorded[trace.LinTrans]+recorded[trace.Rotation] < recorded[trace.CMult]/4 {
		t.Errorf("transform groups + rotations (%v + %v) implausibly few vs CMult (%v)",
			recorded[trace.LinTrans], recorded[trace.Rotation], recorded[trace.CMult])
	}

	// The recorded trace prices on the accelerator like any workload.
	model, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	rep := Simulate(model, DefaultEnergy(), rec.Trace())
	if rep.TotalTime <= 0 {
		t.Error("recorded bootstrap trace must be priceable")
	}
	t.Logf("recorded bootstrap priced at %.1f ms on the modeled U280 (big-N workload model: ~112 ms)",
		rep.TotalTime*1e3)
}

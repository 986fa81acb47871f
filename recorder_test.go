package poseidon

import (
	"errors"
	"sync"
	"testing"

	"poseidon/internal/trace"
	"poseidon/internal/tracing"
)

// Running a real FHE program under a recorder must produce a priceable
// trace whose op mix matches the program.
func TestTraceRecorderCapturesProgram(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40, 40, 40},
		LogP:     []int{51, 51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 600)
	rec := NewTraceRecorder("recorded-inference")
	kit.Eval.SetObserver(rec)

	rec.SetPhase("score")
	ct := kit.EncryptReals([]float64{1, 2, 3, 4})
	prod := kit.Eval.Rescale(kit.Eval.MulRelin(ct, ct)) // CMult + Rescale
	sum := kit.InnerSum(prod, 4)                        // 2 rotations + 2 adds
	rec.SetPhase("finish")
	_ = kit.Eval.AddConst(sum, 1) // HAddPlain

	tr := rec.Trace()
	counts := tr.CountByKind()
	if counts[trace.CMult] != 1 {
		t.Errorf("CMult count %v want 1", counts[trace.CMult])
	}
	if counts[trace.Rescale] != 1 {
		t.Errorf("Rescale count %v want 1", counts[trace.Rescale])
	}
	if counts[trace.Rotation] != 2 {
		t.Errorf("Rotation count %v want 2", counts[trace.Rotation])
	}
	if counts[trace.HAdd] != 2 {
		t.Errorf("HAdd count %v want 2", counts[trace.HAdd])
	}
	if counts[trace.HAddPlain] != 1 {
		t.Errorf("HAddPlain count %v want 1", counts[trace.HAddPlain])
	}

	// Levels recorded as limbs = level+1: the CMult ran at the top level.
	for _, op := range tr.Ops {
		if op.Kind == trace.CMult && op.Limbs != params.MaxLevel()+1 {
			t.Errorf("CMult recorded at %d limbs, want %d", op.Limbs, params.MaxLevel()+1)
		}
	}

	// And the trace prices on the accelerator.
	secs, err := PriceRecorded(rec, U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	if secs <= 0 {
		t.Error("priced time must be positive")
	}
}

// Unknown op names must be counted on the drop counter, not silently lost,
// and must not enter the priced trace. An engine phase and an unpriced
// recovery report are neither: they are not ops, and not lost ones.
func TestTraceRecorderDropped(t *testing.T) {
	rec := NewTraceRecorder("drops")
	rec.ObserveOp(OpEvent{Op: "CMult", Level: 3})
	rec.ObserveOp(OpEvent{Op: "NotAnOp", Level: 3})
	rec.ObserveOp(OpEvent{Op: "AlsoNotAnOp", Level: 2})
	rec.ObserveOp(OpEvent{Op: "LinTrans", Phase: "giant", Level: 3})
	rec.ObserveOp(OpEvent{Op: "HNeg", Level: 3, Retries: 1, Unpriced: true})
	if got := rec.Dropped(); got != 2 {
		t.Fatalf("Dropped() = %d, want 2", got)
	}
	counts := rec.Trace().CountByKind()
	var total float64
	for _, n := range counts {
		total += n
	}
	if counts[trace.CMult] != 1 || total != 1 {
		t.Fatalf("trace counts = %v, want exactly one CMult", counts)
	}
}

// A failed op must never enter a recorded model trace, whoever rides the
// Fanout beside the recorder: the accelerator did no work for it. (With the
// collector fanned in, the old span path forwarded failures to the recorder's
// count-only callback and the trace priced them.)
func TestTraceRecorderSkipsFailedOps(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 603)
	ct := kit.Eval.DropLevel(kit.EncryptReals([]float64{1}), 0)
	for _, row := range []struct {
		name              string
		collector, tracer bool
	}{
		{"recorder alone", false, false},
		{"recorder+collector", true, false},
		{"recorder+collector+idle tracer", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			rec, collector := NewTraceRecorder("failed"), NewCollector("failed")
			sinks := []OpSink{rec}
			if row.collector {
				sinks = append(sinks, collector)
			}
			if row.tracer {
				sinks = append(sinks, new(tracing.EvalObserver))
			}
			kit.Eval.SetObserver(Fanout(sinks...))
			defer kit.Eval.SetObserver(nil)
			if _, err := kit.Eval.TryRescale(ct); !errors.Is(err, ErrLevelExhausted) {
				t.Fatalf("TryRescale at level 0: %v, want ErrLevelExhausted", err)
			}
			if n := rec.Trace().TotalOps(); n != 0 || rec.Dropped() != 0 {
				t.Errorf("recorder holds %v ops and dropped %d after one failed Rescale, want 0 and 0", n, rec.Dropped())
			}
			if got := collector.Snapshot().Errors["Rescale"]; row.collector && got != 1 {
				t.Errorf("collector counted %d Rescale errors, want 1", got)
			}
		})
	}
}

// The recorder's phase labels must flow through to the simulator report.
func TestTraceRecorderPhases(t *testing.T) {
	params, err := NewParameters(ParametersLiteral{
		LogN:     10,
		LogQ:     []int{50, 40},
		LogP:     []int{51},
		LogScale: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	kit := NewKit(params, 601)
	rec := NewTraceRecorder("phased")
	kit.Eval.SetObserver(rec)

	ct := kit.EncryptReals([]float64{1})
	rec.SetPhase("alpha")
	_ = kit.Eval.Add(ct, ct)
	rec.SetPhase("beta")
	_ = kit.Eval.Add(ct, ct)
	_ = kit.Eval.Add(ct, ct)

	model, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	rep := Simulate(model, DefaultEnergy(), rec.Trace())
	if rep.ByTag["beta"] <= rep.ByTag["alpha"] {
		t.Errorf("beta (2 ops) should out-cost alpha (1 op): %v", rep.ByTag)
	}
}

// Trace hands out a copy taken under the lock: one goroutine may read and
// price it while others keep recording (run under -race, this is the check
// that no caller reads the recorder's live op slice), and a copy taken
// earlier does not grow with later recordings.
func TestTraceRecorderConcurrentReaders(t *testing.T) {
	const writers, perWriter = 4, 200
	rec := NewTraceRecorder("concurrent")
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				rec.ObserveOp(OpEvent{Op: "CMult", Level: 3})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if n := rec.Trace().TotalOps(); n > writers*perWriter {
				t.Errorf("trace holds %v ops, more than were recorded", n)
			}
			if _, err := PriceRecorded(rec, U280(), PaperParams()); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done

	tr := rec.Trace()
	if n := tr.TotalOps(); n != writers*perWriter {
		t.Fatalf("trace holds %v ops, want %d", n, writers*perWriter)
	}
	rec.ObserveOp(OpEvent{Op: "CMult", Level: 3})
	if n := tr.TotalOps(); n != writers*perWriter {
		t.Fatalf("an earlier copy grew to %v ops after a later recording", n)
	}
}

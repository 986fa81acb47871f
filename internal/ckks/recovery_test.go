package ckks

import (
	"errors"
	"testing"

	"poseidon/internal/fault"
	"poseidon/internal/telemetry"
)

// armRecovery wires a guarded context to a fault injector and installs a
// recovery policy and an event log, returning the injector and the log.
func armRecovery(t *testing.T, gc *guardContext, maxAttempts int) (*fault.Injector, *eventLog) {
	t.Helper()
	gc.ev.EnableGuards(21)
	in := fault.NewInjector(101)
	gc.params.RingQ.SetFaultInjector(in)
	t.Cleanup(func() { gc.params.RingQ.SetFaultInjector(nil) })
	gc.ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: maxAttempts})
	log := &eventLog{}
	gc.ev.SetObserver(log)
	return in, log
}

// A transient HBM fault that decays on re-read must be recovered by one
// re-execution: the Try call succeeds, the result matches the clean
// reference, and the op's event — and the collector that adds events up —
// attribute exactly one retry.
func TestRecoveryTransientFaultRecovered(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	a, b, _ := gc.inputs(t, 11, gc.params.MaxLevel())
	ref := NewEvaluator(gc.params, ev.rlk, ev.rtks)
	want := ref.Add(a, b) // clean reference before any corruption

	in, log := armRecovery(t, gc, 3)
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	// Fires on the first limb read of the input verification; decay 0 means
	// the retry's re-read scrubs it clean.
	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Transient, 0)
	col := telemetry.NewCollector("recovery")
	ev.SetObserver(Fanout(log, col))

	out := NewCiphertext(gc.params, a.Level)
	got, err := ev.TryAddInto(out, a, b)
	if err != nil {
		t.Fatalf("transient fault not recovered: %v", err)
	}
	requireCtEqual(t, got, want, "recovered Add")
	if got.seal == nil {
		t.Fatal("recovered result not sealed")
	}

	if r := col.Snapshot().Recovery; r == nil || r.Attempts != 1 || r.Recovered != 1 || r.Unrecoverable != 0 {
		t.Fatalf("collector recovery = %+v, want 1 attempt, 1 recovered", r)
	}
	if got := log.all(); len(got) != 1 || got[0].Retries != 1 || got[0].Err != nil {
		t.Fatalf("events = %+v, want the one HAdd reporting 1 retry and no error", got)
	}
	if in.Stats().Healed != 1 {
		t.Fatalf("injector stats %+v: transient fault did not heal", in.Stats())
	}
}

// A sticky fault survives every re-read, so the retry budget must exhaust:
// the call fails with ErrIntegrity and the op counts as unrecoverable.
func TestRecoveryStickyFaultExhaustsBudget(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	a, b, _ := gc.inputs(t, 12, gc.params.MaxLevel())
	in, log := armRecovery(t, gc, 3)
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Sticky, 0)
	col := telemetry.NewCollector("recovery")
	ev.SetObserver(Fanout(log, col))

	out := NewCiphertext(gc.params, a.Level)
	_, err := ev.TryAddInto(out, a, b)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("got %v, want ErrIntegrity after budget exhaustion", err)
	}
	if r := col.Snapshot().Recovery; r == nil || r.Attempts != 2 || r.Recovered != 0 || r.Unrecoverable != 1 {
		t.Fatalf("collector recovery = %+v, want 2 attempts, 1 unrecoverable", r)
	}
	if got := log.all(); len(got) != 1 || got[0].Retries != 2 || got[0].Err != err {
		t.Fatalf("events = %+v, want the one HAdd reporting 2 retries and the call's error", got)
	}
}

// Transactional semantics: a failed Try must not leave a partially-written
// destination. The destination's words are bit-identical before and after
// the failed call.
func TestRecoveryFailureLeavesDestinationUntouched(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	a, b, _ := gc.inputs(t, 13, gc.params.MaxLevel())
	in, _ := armRecovery(t, gc, 2)
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	// A recognizable destination payload: a fresh ciphertext with a pattern.
	out := NewCiphertext(gc.params, a.Level)
	for i := range out.C0.Coeffs {
		for j := range out.C0.Coeffs[i] {
			out.C0.Coeffs[i][j] = uint64(i + j)
			out.C1.Coeffs[i][j] = uint64(i * 3)
		}
	}
	snap := out.CopyNew()

	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Sticky, 0)
	if _, err := ev.TryAddInto(out, a, b); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("got %v, want ErrIntegrity", err)
	}
	for i := range snap.C0.Coeffs {
		for j := range snap.C0.Coeffs[i] {
			if out.C0.Coeffs[i][j] != snap.C0.Coeffs[i][j] || out.C1.Coeffs[i][j] != snap.C1.Coeffs[i][j] {
				t.Fatalf("failed attempt wrote destination at limb %d coeff %d", i, j)
			}
		}
	}
}

// With recovery off (nil policy or MaxAttempts ≤ 1) the evaluator reports
// no policy and the Try path behaves exactly as before.
func TestRecoveryPolicyInstallAndClear(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	if ev.RecoveryPolicy() != nil {
		t.Fatal("fresh evaluator has a recovery policy")
	}
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 4})
	if p := ev.RecoveryPolicy(); p == nil || p.MaxAttempts != 4 {
		t.Fatalf("policy not installed: %+v", p)
	}
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 1})
	if ev.RecoveryPolicy() != nil {
		t.Fatal("MaxAttempts 1 should clear the policy")
	}
	ev.SetRecoveryPolicy(&RecoveryPolicy{MaxAttempts: 4})
	ev.SetRecoveryPolicy(nil)
	if ev.RecoveryPolicy() != nil {
		t.Fatal("nil should clear the policy")
	}
}

// The recovery outcome rides the op's own event — one report per episode, not
// a second callback: the retry count, no error, the latency from the first
// failure to the recovered result, and the op still priced. This is the wire
// telemetry.Collector rides into /metrics.
func TestRecoveryRidesOpEvent(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	a, b, _ := gc.inputs(t, 14, gc.params.MaxLevel())
	in, log := armRecovery(t, gc, 3)
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Transient, 0)
	out := NewCiphertext(gc.params, a.Level)
	if _, err := ev.TryAddInto(out, a, b); err != nil {
		t.Fatalf("recovered call failed: %v", err)
	}
	got := log.all()
	if len(got) != 1 {
		t.Fatalf("sink saw %+v, want one event for the recovered op", got)
	}
	if e := got[0]; e.Op != "HAdd" || e.Retries != 1 || e.Err != nil || e.Recovery <= 0 || e.Dur < e.Recovery || e.Unpriced {
		t.Fatalf("event %+v, want a priced HAdd with 1 retry, no error and a recovery latency inside its duration", e)
	}

	// The next op reports a clean record, not a recycled one.
	if _, err := ev.TryAddInto(out, a, b); err != nil {
		t.Fatal(err)
	}
	if e := log.all()[1]; e.Retries != 0 || e.Recovery != 0 {
		t.Fatalf("op after a recovered one reports %+v", e)
	}
}

// A fanout must deliver the recovery outcome to every member — the serving
// layer installs Fanout(collector, traceSink) on tenant evaluators and both
// sides need the recovery feed.
func TestFanoutForwardsRecovery(t *testing.T) {
	gc := newGuardContext(t)
	ev := gc.ev
	a, b, _ := gc.inputs(t, 14, gc.params.MaxLevel())
	in, first := armRecovery(t, gc, 3)
	second := &eventLog{}
	ev.SetObserver(Fanout(first, nil, second))
	ev.SealIntegrity(a)
	ev.SealIntegrity(b)

	in.ArmAtMode(fault.SiteHBM, fault.BitFlip, 0, fault.Transient, 0)
	out := NewCiphertext(gc.params, a.Level)
	if _, err := ev.TryAddInto(out, a, b); err != nil {
		t.Fatalf("recovered call failed: %v", err)
	}
	for i, log := range []*eventLog{first, second} {
		if got := log.all(); len(got) != 1 || got[0].Retries != 1 || got[0].Err != nil {
			t.Fatalf("fanout member %d saw %+v, want one recovered op", i, got)
		}
	}
}

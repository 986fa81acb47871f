package ckks

import (
	"errors"
	"time"
)

// Op-level fault recovery: the detect→recover half of the fault-tolerance
// story. The guards (guard.go) *detect* corruption — residue checksums at
// operator boundaries, the redundant-limb spot-check — and surface it as
// ErrIntegrity; with a RecoveryPolicy installed, exec's attempt step
// (exec.go) becomes the retry loop below, which *re-executes* the failed
// operation from its inputs. That recovers every transient fault — an HBM
// word that scrubs clean on re-read, a datapath glitch that corrupted one
// attempt's scratch — while sticky corruption still fails after the attempt
// budget and propagates to the caller. Recovery is a step of exec, not a
// wrapper around it, so it applies to every surface of every op alike.
//
// Correctness rests on transactional destination semantics: with recovery
// armed, every attempt executes into arena scratch and the caller's
// destination is written only from a verified attempt. A failed attempt
// therefore never leaves a partially-written destination, and a
// destination that aliases an input never destroys the operand a retry
// needs. The scratch is released on every exit path, including attempts
// that die in an injected panic.
//
// With no policy installed (the default) exec runs its one attempt straight
// into the destination — no scratch, no copies, zero heap allocations; the
// alloc gates cover the Try*Into surfaces too.

// RecoveryPolicy configures transparent re-execution of operations that
// fail with ErrIntegrity.
type RecoveryPolicy struct {
	// MaxAttempts is the total execution budget per operation, first try
	// included. Values ≤ 1 disable recovery.
	MaxAttempts int
}

// SetRecoveryPolicy installs (or, with nil or MaxAttempts ≤ 1, removes)
// the evaluator's recovery policy. The policy is shared with evaluators
// later derived via WithWorkers.
func (ev *Evaluator) SetRecoveryPolicy(p *RecoveryPolicy) {
	if p == nil || p.MaxAttempts <= 1 {
		ev.recovery = nil
		return
	}
	cp := *p
	ev.recovery = &cp
}

// RecoveryPolicy returns a copy of the installed policy, or nil when
// recovery is off.
func (ev *Evaluator) RecoveryPolicy() *RecoveryPolicy {
	if ev.recovery == nil {
		return nil
	}
	p := *ev.recovery
	return &p
}

// attemptRecovering is exec's step 3 under a recovery policy: the
// transactional retry loop. Every attempt executes into arena scratch; only
// a verified attempt is copied into out. An op without a ciphertext result
// (Hoist) has nothing to stage and simply re-runs: its recoverable failure
// is the corrupted *input* read, and each re-verification re-reads every
// limb through the HBM hooks — exactly the read a transient fault decays on.
// What the loop did rides the op's event: c.retries and c.recovery.
func (c *opCall) attemptRecovering(out *Ciphertext) (err error) {
	ev := c.ev
	dst := out
	if out != nil {
		arena := ev.params.arena
		dst = &Ciphertext{C0: arena.GetDirty(c.level + 1), C1: arena.GetDirty(c.level + 1), Level: c.level}
		defer func() {
			arena.Put(dst.C0)
			arena.Put(dst.C1)
		}()
	}

	var start time.Time
	for {
		err = c.attempt(dst)
		// Only a fault-detection failure is retried, and only within budget.
		if !errors.Is(err, ErrIntegrity) || c.retries+1 >= ev.recovery.MaxAttempts {
			break
		}
		if c.retries == 0 {
			start = time.Now()
		}
		c.retries++
	}
	if c.retries > 0 {
		c.recovery = time.Since(start)
	}
	if err == nil && out != nil {
		commitScratch(out, dst)
	}
	return err
}

// commitScratch copies a verified attempt's result into the caller's
// destination. Sized writes through reshapeCt, like every *Into kernel;
// the seal is recomputed by the caller over the destination's own storage
// so it vouches for the copy, not the discarded scratch.
func commitScratch(out, scratch *Ciphertext) {
	reshapeCt(out, scratch.Level)
	for i := 0; i <= scratch.Level; i++ {
		copy(out.C0.Coeffs[i], scratch.C0.Coeffs[i])
		copy(out.C1.Coeffs[i], scratch.C1.Coeffs[i])
	}
	out.C0.IsNTT = scratch.C0.IsNTT
	out.C1.IsNTT = scratch.C1.IsNTT
	out.Scale = scratch.Scale
}

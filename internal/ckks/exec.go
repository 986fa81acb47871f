package ckks

import (
	"time"

	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/trace"
)

// How an op runs. The accelerator has one control path that issues every
// basic operation as a short program over five shared operator cores; the
// evaluator has one exec. Each basic op is described once, as an opDesc (the
// table is in safe.go, the kernels in evaluator_into.go), and each of its
// three surfaces — X, XInto, TryXInto — is a one-line call of exec, which
// owns, in this order and nowhere else:
//
//  1. structural validation of the operands (validIn / validPt);
//  2. the op's preconditions (scale match, key present, level left to drop,
//     noise budget), then the destination: validated — aliasing included —
//     when the caller passed one, allocated at the result level when not;
//  3. the attempt, inside the recovery boundary: re-verification of sealed
//     inputs, the kernel, the redundant-limb spot-check. With a
//     RecoveryPolicy installed attempts run into arena scratch and are
//     re-executed on ErrIntegrity (recovery.go);
//  4. the output seal;
//  5. the op's one event, for either outcome, retries included (observer.go).
//
// The surfaces differ only in how the outcome is delivered: TryXInto returns
// the *OpError, X and XInto panic with that same *OpError (must). A nil
// destination asks exec to allocate the result, so X is XInto(nil, …).

// opDesc describes one basic operation.
type opDesc struct {
	name    string // trace name: the span, OpEvent.Op, OpError.Op
	observe bool   // whether the op is reported to the sink on its own account (both outcomes, or neither)
	binary  bool   // takes a second ciphertext operand b
	plain   bool   // takes a plaintext operand pt
	noDest  bool   // produces no ciphertext (Hoist fills a handle instead)
	noAlias bool   // the destination must not share storage with an operand
	drop    int    // levels consumed: result level = lowest operand level − drop

	pre    func(c *opCall) error // op-specific preconditions; may resolve c.g and c.key
	kernel func(c *opCall)       // computes c.out from the operands; scratch via c.scratch
	// spot, when set, reports whether limb i of c.out agrees with its
	// recomputation by the strict reference arithmetic.
	spot func(c *opCall, mod numeric.Modulus, i int) bool
}

// operands is what a surface hands to exec; each descriptor reads the fields
// its shape names and ignores the rest.
type operands struct {
	a, b *Ciphertext
	pt   *Plaintext
	s    *rnsScalar // integer constant of the scalar ops
	key  *SwitchingKey
	g    uint64   // Galois element of a rotation or conjugation
	h    *Hoisted // hoisted handle (Hoist fills it, Hoisted.Rotate replays it)
}

// opCall is exec's per-call record: the operands, what validation derived
// from them, and the state the kernel's stages share — it is the *S the
// closure-free stage runner (ring.Run) hands to every limb stage. Records
// are recycled through the Parameters free list like ksState, so a
// steady-state op allocates nothing.
type opCall struct {
	operands
	ev *Evaluator
	d  *opDesc

	run   int         // level the op runs (and is observed) at: the lowest operand level
	level int         // result level, run − d.drop; what an OpError of this call reports
	x, y  *Ciphertext // a and b cut to the run level
	out   *Ciphertext // destination of the running attempt
	span  opSpan

	retries  int           // re-executions the recovery loop performed …
	recovery time.Duration // … and the time from the first failure to its outcome

	// Kernel state. tmp and vec are RingQ scratch the kernel has checked out;
	// sweep returns whatever is still held when the attempt ends, however it
	// ends. The rest are stage operands.
	tmp [4]*ring.Poly
	vec []uint64
	pv  *ring.Poly // plaintext rows (or their Montgomery image) at the run level
	dst *ring.Poly // rescale: the polynomial being written …
	src [][]uint64 // … and the rows it is computed from

	// The armed spot-check of a rescale: the limb whose forward transform is
	// recomputed (−1: none) and whether the recomputation disagreed.
	spotLimb int
	spotBad  bool
}

// must turns the error outcome of exec into the panicking surfaces'
// contract: they panic with exactly the *OpError the Try surfaces return.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// exec runs one basic operation; see the top of this file for the order of
// steps. out nil asks for a fresh destination, allocated only once the
// operands have passed validation.
func (ev *Evaluator) exec(d *opDesc, out *Ciphertext, in operands) (res *Ciphertext, err error) {
	c := popFree(ev.params, &ev.params.opFree)
	c.operands, c.ev, c.d = in, ev, d
	c.run, c.level = lvlOf(in.a), lvlOf(in.a)
	if d.observe {
		c.span = ev.beginOp(d.name)
	}
	defer c.finish(&err) // runs last: sees the error recoverOp translated
	defer recoverOp(d.name, &c.level, &err)

	if err = c.validate(out); err != nil {
		return nil, err
	}
	if out == nil && !d.noDest {
		out = NewCiphertext(ev.params, c.level)
	}
	if ev.recovery == nil {
		err = c.attempt(out)
	} else {
		err = c.attemptRecovering(out)
	}
	if err != nil {
		return nil, err
	}
	if out != nil && ev.guards != nil {
		ev.SealIntegrity(out) // the next operation's input boundary can vouch for it
	}
	return out, nil
}

// validate is steps 1 and 2: operand structure, the level rule, the op's
// preconditions, the destination.
func (c *opCall) validate(out *Ciphertext) error {
	ev, d := c.ev, c.d
	if err := ev.validIn(d.name, c.a); err != nil {
		return err
	}
	run := c.a.Level
	if d.binary {
		if err := ev.validIn(d.name, c.b); err != nil {
			return err
		}
		run = min(run, c.b.Level)
	}
	if d.plain {
		if err := ev.validPt(d.name, c.pt); err != nil {
			return err
		}
		run = min(run, c.pt.Level)
	}
	c.run, c.level = run, run-d.drop
	if d.pre != nil {
		if err := d.pre(c); err != nil {
			return err
		}
	}
	if out != nil {
		if err := ev.validDest(d.name, out, c.level); err != nil {
			return err
		}
		if d.noAlias && c.aliased(out) {
			return opErr(d.name, c.level, ErrAliasedDestination, "destination must not alias an operand")
		}
	}
	c.x = ev.atLevel(c.a, run)
	if d.binary {
		c.y = ev.atLevel(c.b, run)
	}
	return nil
}

// aliased reports whether dst shares storage with a ciphertext operand.
func (c *opCall) aliased(dst *Ciphertext) bool {
	return aliasCt(dst, c.a) || (c.d.binary && aliasCt(dst, c.b))
}

// attempt is step 3, once: the input-boundary guard, the kernel into dst,
// the spot-check — inside its own recovery boundary, so a panic (a worker
// fault, an injected abort) fails this attempt rather than the call and the
// retry loop can look at the error. Kernel scratch is swept on every exit.
func (c *opCall) attempt(dst *Ciphertext) (err error) {
	defer recoverOp(c.d.name, &c.level, &err)
	defer c.sweep()
	ev, d := c.ev, c.d
	if ev.guards != nil {
		if err := ev.verifySealed(d.name, c.a); err != nil {
			return err
		}
		if d.binary {
			if err := ev.verifySealed(d.name, c.b); err != nil {
				return err
			}
		}
	}
	// An aliased destination overwrites the operand the recomputation would
	// read; decided before the kernel reshapes anything.
	spot := d.spot != nil && ev.guards.spotOn() && !c.aliased(dst)
	c.out = dst
	d.kernel(c)
	if spot {
		return ev.spotCheck(c)
	}
	return nil
}

// scratch checks a dirty `limbs`-limb RingQ polynomial out into slot k.
func (c *opCall) scratch(k, limbs int) *ring.Poly {
	c.tmp[k] = c.ev.params.RingQ.GetPolyDirty(limbs)
	return c.tmp[k]
}

// release returns slot k; kernels call it as soon as they are done with a
// piece, which keeps the peak arena footprint down.
func (c *opCall) release(k int) { releasePoly(c.ev.params.RingQ, &c.tmp[k]) }

// sweep returns every piece of scratch the kernel still holds: a no-op after
// a clean run (the kernels release eagerly), the leak-proofing after a panic
// anywhere inside one.
func (c *opCall) sweep() {
	for k := range c.tmp {
		c.release(k)
	}
	if c.vec != nil {
		c.ev.params.RingQ.PutVec(c.vec)
		c.vec = nil
	}
}

// finish is step 5 and the end of the record's life. The identity
// automorphism (g = 1) is a copy: no keyswitch ran, so a successful one is no
// more an op of the model's trace than one the descriptor leaves unobserved —
// the accelerator model must not be charged a Rotation for it. Such an op is
// reported only when the recovery loop re-executed it, and marked.
func (c *opCall) finish(err *error) {
	ev := c.ev
	unpriced := !c.d.observe || (*err == nil && c.g == 1)
	if !unpriced || c.retries > 0 {
		ev.emit(c.span, trace.OpEvent{
			Op: c.d.name, Level: c.run, Err: *err,
			Retries: c.retries, Recovery: c.recovery, Unpriced: unpriced,
		})
	} else {
		c.span.cancel()
	}
	*c = opCall{}
	pushFree(ev.params, &ev.params.opFree, c)
}

package ckks

import (
	"time"

	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/trace"
)

// How an op runs. The accelerator has one control path that issues every
// operation, slot transforms included, as a short program over five shared
// operator cores; the evaluator has one exec. Each op — the ten basic ops and
// the linear transform — is described once, as an opDesc (the table is in
// safe.go), and each of its surfaces — X, XInto, TryXInto — is a one-line
// call of exec, which owns, in this order and nowhere else:
//
//  1. structural validation of the operands (validIn / validPt);
//  2. the op's preconditions (scale match, key present, level left to drop,
//     modulus headroom), then the destination: validated — aliasing included —
//     when the caller passed one, allocated at the result level when not;
//  3. the attempt, inside the recovery boundary: re-verification of sealed
//     inputs, the kernel, the redundant-limb spot-check, then the sweep
//     that returns whatever arena scratch the kernel still holds, however
//     it ended. With a RecoveryPolicy installed attempts run into arena
//     scratch and are re-executed on ErrIntegrity (recovery.go);
//  4. the output seal;
//  5. the op's one event, for either outcome, retries included (observer.go);
//     the transform's kernel reports its phases and giant-step groups instead.
//
// A call has one record, an opCall from the Parameters free list: the
// operands, the kernel's scratch and the stage state of a keyswitch or a
// linear transform all live on it, so no kernel pops a second record or
// defers a release of its own.
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

	lt    *LinearTransform
	stats *LinTransStats // when non-nil, the transform's kernel fills it
}

// opCall is exec's per-call record, the one record an op has: the operands,
// what validation derived from them, and the state the kernel's stages share
// — the keyswitch datapath (ksDigits) and the linear transform's (ltState)
// included. It is the *S the closure-free stage runner (ring.Run) hands to
// every limb stage, or the embedded part of it a stage is a method of.
// Records are recycled through the Parameters free list and keep their slice
// capacities, so a steady-state op allocates nothing; every arena buffer the
// kernel draws hangs off the record, so the attempt's sweep is the one path
// that returns them.
type opCall struct {
	operands
	ev *Evaluator
	d  *opDesc

	run   int             // level the op runs (and is observed) at: the lowest operand level, unless pre moves it
	level int             // result level, run − d.drop; what an OpError of this call reports
	x, y  *Ciphertext     // a and b cut to the run level
	keys  []*SwitchingKey // a transform's rotation keys, resolved by preLinTrans
	out   *Ciphertext     // destination of the running attempt
	span  opSpan

	retries  int           // re-executions the recovery loop performed …
	recovery time.Duration // … and the time from the first failure to its outcome

	// Kernel state. tmp is the arena scratch the kernel has checked out, in
	// one shape: a staging row (a rescale's last limb, the spot-check's
	// pre-image) is a one-limb poly in a slot like any other. sweep returns
	// whatever is still held when the attempt ends, however it ends. The
	// rest are stage operands.
	tmp [4]*ring.Poly
	dst *ring.Poly // rescale: the polynomial being written …
	src [][]uint64 // … and the rows it is computed from

	// The armed spot-check of a rescale: the limb whose forward transform is
	// recomputed (−1: none) and whether the recomputation disagreed.
	spotLimb int
	spotBad  bool

	// The keyswitch and linear-transform state (its embedded ksDigits): a
	// kernel binds what it needs here.
	ltState
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
	c.x = ev.atLevel(c.a, c.run)
	if d.binary {
		c.y = ev.atLevel(c.b, c.run)
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

// scratch checks a dirty `limbs`-limb polynomial out into slot k.
func (c *opCall) scratch(k, limbs int) *ring.Poly {
	c.tmp[k] = c.ev.params.arena.GetDirty(limbs)
	return c.tmp[k]
}

// release returns slot k; kernels call it as soon as they are done with a
// piece, which keeps the peak arena footprint down.
func (c *opCall) release(k int) { c.ev.params.releasePoly(&c.tmp[k]) }

// sweep returns every arena buffer the kernel still holds — the scratch
// slots (staging rows included), the keyswitch accumulators and the digits it
// drew, the transform's P·ct lift, baby rotations, group scratch and
// giant-step digits: a no-op after a clean keyswitch (the kernels release
// eagerly), the end of a transform's buffers, and the leak-proofing after a
// panic anywhere inside one. Borrowed digits are forgotten, not returned:
// their Hoisted handle owns them.
func (c *opCall) sweep() {
	params := c.ev.params
	for k := range c.tmp {
		c.release(k)
	}
	params.putPolys(c.acc[:])
	if c.borrowed {
		clear(c.digits)
		c.digits, c.borrowed = c.digits[:0], false
	} else {
		c.digits = params.putPolys(c.digits)
	}
	c.gd = params.putPolys(c.gd)
	for k := range c.babies {
		params.putPolys(c.babies[k][:])
	}
	c.babies = c.babies[:0]
	params.putPolys(c.grp[:])
	for _, q := range [3]**ring.Poly{&c.ctP0, &c.ctP1, &c.c1Std} {
		params.releasePoly(q)
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
	// The slices keep their capacity, emptied so nothing they pointed at
	// stays reachable through the free list (the sweep emptied the digit
	// and baby tables).
	clear(c.keys)
	clear(c.rows)
	clear(c.macRows[:cap(c.macRows)])
	*c = opCall{keys: c.keys[:0], ltState: ltState{
		ksDigits: ksDigits{digits: c.digits[:0], rows: c.rows[:0]},
		gd:       c.gd[:0], babies: c.babies[:0], macRows: c.macRows[:0],
	}}
	pushFree(ev.params, &ev.params.opFree, c)
}

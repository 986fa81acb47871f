package ckks

import (
	"slices"

	"poseidon/internal/ring"
)

// Rotation hoisting (Halevi–Shoup): when one ciphertext feeds many
// rotations — the BSGS linear transform and every matrix-heavy workload —
// the expensive part of each keyswitch (digit decomposition, basis
// extension and the forward NTTs of the extended digits) depends only on
// the input, not on the Galois element. Hoist performs that work once and
// Hoisted.Rotate replays it per rotation as a cheap NTT-domain permutation,
// because the decomposition commutes with the automorphism; Release returns
// the borrowed digits. That handle is the one hoisted-rotation path.
//
// Both phases run on the evaluator's worker pool through the op record's
// keyswitch stage methods (ksDigits): the shared decomposition chunks across
// coefficients and then transforms limb by limb, and each rotation replays
// the limb-major inner product (ksDigits.innerProduct) over the handle's
// digits with the rotation's permutation gathered inside the multiply — no
// permuted copy is staged. All per-rotation scratch is recycled, so the
// steady-state cost of a hoisted batch is the output ciphertexts
// themselves.

// Hoisted is a reusable handle over one ciphertext's shared keyswitch
// decomposition — the entry point to rotation hoisting. It lets a caller
// (the serving layer's batch scheduler, a BSGS loop discovering its steps
// incrementally) pay the decomposition once and request rotations one at a
// time, possibly interleaved with other work. The handle holds Digits(level)
// full-width digit matrices checked out of the parameter set's arena: call
// Release when done, or the arena reports the bytes as permanently in use.
// It holds no copy of the ciphertext: every rotation reads ct.C0, and the
// digit-own rows of the decomposition are ct.C1's, where they lie — the
// ciphertext must not be modified while the handle is live; with guards on,
// every TryRotate re-verifies its seal. A Hoisted is bound to the evaluator
// that created it and is not safe for concurrent use.
type Hoisted struct {
	ev *Evaluator
	ct *Ciphertext
	// digits are the decomposition of ct.C1: their first level+1+Alpha rows
	// over Q_l ∪ P in the NTT domain, the digit-own rows unwritten (they are
	// ct.C1's). Nil once released.
	digits []*ring.Poly
	level  int // the decomposition's level, kept past Release
}

// Hoist performs the shared decomposition phase for ct and returns the
// handle, through exec like every basic op: ct is validated and, with
// guards on, its seal re-verified — under a recovery policy that
// verification is what gets retried, since a corrupted input read is the
// recoverable failure here. (Failures *inside* a hoisted rotation of the
// serving layer are recovered one level up, by the scheduler's job retry: the
// job runs again through the evaluator, on a fresh decomposition.) Panics
// with the *OpError TryHoist returns.
func (ev *Evaluator) Hoist(ct *Ciphertext) *Hoisted { return must(ev.TryHoist(ct)) }

// TryHoist is the error-returning form of Hoist — the serving layer's entry
// point, where ciphertexts arrive from the wire. Evaluators without rotation
// keys report ErrKeyMissing.
func (ev *Evaluator) TryHoist(ct *Ciphertext) (*Hoisted, error) {
	h := &Hoisted{ev: ev, ct: ct}
	if _, err := ev.exec(&opHoist, nil, operands{a: ct, h: h}); err != nil {
		return nil, err
	}
	return h, nil
}

// kernHoist performs the shared phase for a handle: the decomposition of C1
// is drawn into the record and transformed, then handed to the handle. On a
// panic anywhere before the hand-over, the record's sweep returns every digit
// matrix acquired so far and the arena copy of C1.
func kernHoist(c *opCall) {
	c.bind(c.ev.params, c.level)
	c.hoistDigits(c.x.C1)
	c.h.digits, c.h.level = slices.Clone(c.digits), c.level
	clear(c.digits)
	c.digits = c.digits[:0] // the handle owns them now
}

// hoistDigits is the shared phase of Hoist and of a transform's baby steps:
// x decomposed into the record's digits, every digit row but the own ones
// (x's) taken to the NTT domain, and the coefficient-domain copy of x
// returned at once.
func (c *opCall) hoistDigits(x *ring.Poly) {
	c.decompose(c.scratch(0, c.qLimbs), x)
	ring.Run(c.ev.pool, c.ext1, &c.ksDigits, (*ksDigits).forwardLimb)
	c.release(0)
}

// Level reports the level the decomposition was taken at — also after
// Release.
func (h *Hoisted) Level() int { return h.level }

// Rotate applies one rotation through the shared decomposition. Panics with
// the *OpError TryRotate returns.
func (h *Hoisted) Rotate(steps int) *Ciphertext { return must(h.TryRotate(steps)) }

// TryRotate applies one rotation through the shared decomposition: a
// missing key is ErrKeyMissing, a released handle is ErrInvalidInput,
// internal panics surface as typed errors, and the result is sealed when
// integrity guards are on.
func (h *Hoisted) TryRotate(steps int) (*Ciphertext, error) {
	return h.ev.exec(&opHoistedRotate, nil, operands{a: h.ct, h: h, g: h.ev.rotG(steps)})
}

// Release returns the digit matrices to the parameter set's arena.
// Safe to call more than once; the handle rejects rotations afterwards.
func (h *Hoisted) Release() {
	if h.digits != nil {
		h.ev.params.putPolys(h.digits)
		h.digits = nil
	}
}

// kernHoistedRotate replays the shared decomposition through the keyswitch
// pipeline for one Galois element: the limb-major inner product gathers each
// cached NTT-domain digit row through the rotation's Galois permutation
// (resolved once, here) instead of decomposing again, and the close sets
// out.C0 = σ_g(c0) + p0 through the same permutation. The borrowed digit
// matrices stay owned by the handle; the digit-own rows are c.x.C1's.
func kernHoistedRotate(c *opCall) {
	out, level := c.out, c.level
	reshapeCt(out, level)
	if c.g == 1 {
		c.copyIdentity()
		return
	}
	c.bindKeySwitch(c.key, c.scratch(0, level+1), out.C1)
	c.digits, c.borrowed, c.own = append(c.digits, c.h.digits...), true, c.x.C1.Coeffs
	c.replayUnder(c.ev.params.RingQ.NTTGaloisPermutation(c.g), out.C0, c.x.C0)
	c.ksRun()
	c.release(0)
	out.Scale = c.x.Scale
}

package ckks

import "poseidon/internal/ring"

// Rotation hoisting (Halevi–Shoup): when one ciphertext feeds many
// rotations — the BSGS linear transform and every matrix-heavy workload —
// the expensive part of each keyswitch (digit decomposition, basis
// extension and the forward NTTs of the extended digits) depends only on
// the input, not on the Galois element. Hoist performs that work once and
// Hoisted.Rotate replays it per rotation as a cheap NTT-domain permutation,
// because the decomposition commutes with the automorphism; Release returns
// the borrowed digits. That handle is the one hoisted-rotation path.
//
// Both phases run on the evaluator's worker pool through the pooled
// keyswitch state's stage methods: the shared decomposition chunks across
// coefficients and then transforms limb by limb, and each rotation replays
// the limb-major inner product (ksDigits.innerProduct) over the borrowed
// digits with the rotation's permutation gathered inside the multiply — no
// permuted copy is staged. All per-rotation scratch is recycled, so the
// steady-state cost of a hoisted batch is the output ciphertexts
// themselves.

// hoistedDecomposition caches the shared per-input keyswitch state. The
// digit matrices are borrowed from the parameter set's free list; call
// release when every rotation has been evaluated.
type hoistedDecomposition struct {
	level  int
	digits [][][]uint64 // [digit][limb][coeff], NTT domain over Q_l ∪ P, digit-own rows unwritten
	own    [][]uint64   // the digit-own rows: the decomposed C1 itself, as the ciphertext holds it
}

// release returns the borrowed digit matrices. Nil-safe so it can double as
// the panic-path sweep of a partially built decomposition.
func (hd *hoistedDecomposition) release(params *Parameters) {
	hd.digits = params.putDigits(hd.digits)
	hd.own = nil
}

// decomposeHoistedInto performs the shared phase on ct.C1 into a
// caller-owned record, reusing hd.digits capacity across calls — the
// zero-allocation entry the pooled linear-transform state uses. The
// decomposition keeps reading ct.C1's rows (hd.own) until it is released. The
// caller owns the release of hd (panic paths included); the c1 scratch and
// the state record borrowed for its stage methods are swept locally.
func (ev *Evaluator) decomposeHoistedInto(hd *hoistedDecomposition, ct *Ciphertext) {
	params := ev.params
	rq := params.RingQ
	level := ct.Level

	s := popFree(params, &params.ksFree)
	defer ev.ksRelease(s)
	s.bind(params, level)

	s.cx = rq.GetPolyDirty(level + 1)
	defer rq.PutPoly(s.cx)
	ev.inttCopyInto(&s.intt, s.cx, ct.C1)

	hd.level, hd.own = level, ct.C1.Coeffs
	hd.digits = params.getDigits(hd.digits[:0], level)
	s.borrow(hd) // hd owns the digits from the moment they are drawn
	ring.RunChunks(ev.pool, params.N, s, (*ksState).decomposeChunk)
	ring.Run(ev.pool, s.ext1, &s.ksDigits, (*ksDigits).forwardLimb)
}

// Hoisted is a reusable handle over one ciphertext's shared keyswitch
// decomposition — the entry point to rotation hoisting. It lets a caller
// (the serving layer's batch scheduler, a BSGS loop discovering its steps
// incrementally) pay the decomposition once and request rotations one at a
// time, possibly interleaved with other work. The handle borrows digit
// matrices from the parameter set's free lists: call Release when done, or
// the arena reports the bytes as permanently in use. It holds no copy of the
// ciphertext: every rotation reads ct.C0, and the digit-own rows of the
// decomposition are ct.C1's, where they lie — the ciphertext must not be
// modified while the handle is live; with guards on, every TryRotate
// re-verifies its seal. A Hoisted is bound to the evaluator that created it
// and is not safe for concurrent use.
type Hoisted struct {
	ev *Evaluator
	ct *Ciphertext
	hd *hoistedDecomposition
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

// kernHoist performs the shared phase for a handle. On a panic anywhere in
// the decomposition, every digit matrix acquired so far and the arena copy
// of C1 are returned before the panic propagates.
func kernHoist(c *opCall) {
	params := c.ev.params
	hd := &hoistedDecomposition{digits: make([][][]uint64, 0, params.Digits(c.level))}
	defer func() {
		if c.h.hd == nil {
			hd.release(params)
		}
	}()
	c.ev.decomposeHoistedInto(hd, c.x)
	c.h.hd = hd
}

// Level reports the level the decomposition was taken at.
func (h *Hoisted) Level() int { return h.hd.level }

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

// Release returns the borrowed digit matrices to the parameter free lists.
// Safe to call more than once; the handle rejects rotations afterwards.
func (h *Hoisted) Release() {
	if h.hd != nil {
		h.hd.release(h.ev.params)
		h.hd = nil
	}
}

// kernHoistedRotate replays the shared decomposition through the keyswitch
// pipeline for one Galois element: the limb-major inner product gathers each
// cached NTT-domain digit row through the rotation's Galois permutation
// (resolved once, here) instead of decomposing again, and the close sets
// out.C0 = σ_g(c0) + p0 through the same permutation. The borrowed digit
// matrices stay owned by the handle.
func kernHoistedRotate(c *opCall) {
	ev, out, level := c.ev, c.out, c.level
	reshapeCt(out, level)
	if c.g == 1 {
		c.copyIdentity()
		return
	}
	s := ev.newKsState(level, c.key, c.scratch(0, level+1), out.C1)
	defer ev.ksRelease(s)
	s.borrow(c.h.hd)
	s.replayUnder(ev.params.RingQ.NTTGaloisPermutation(c.g), out.C0, c.x.C0)
	ev.ksRun(s)
	c.release(0)
	out.Scale = c.x.Scale
}

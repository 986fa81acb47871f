package ckks

import (
	"fmt"

	"poseidon/internal/ring"
)

// Rotation hoisting (Halevi–Shoup): when one ciphertext feeds many
// rotations — the BSGS linear transform and every matrix-heavy workload —
// the expensive part of each keyswitch (digit decomposition, basis
// extension and the forward NTTs of the extended digits) depends only on
// the input, not on the Galois element. RotateHoisted performs that work
// once and replays it per rotation as a cheap NTT-domain permutation,
// because the decomposition commutes with the automorphism.
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
	digits [][][]uint64 // [digit][limb][coeff], NTT domain over Q_l ∪ P
	c0     *ring.Poly   // coefficient-domain copy of C0
}

// release returns the borrowed digit matrices and the C0 copy. Nil-safe so
// it can double as the panic-path sweep of a partially built decomposition.
func (hd *hoistedDecomposition) release(params *Parameters) {
	hd.digits = params.putDigits(hd.digits)
	if hd.c0 != nil {
		params.RingQ.PutPoly(hd.c0)
		hd.c0 = nil
	}
}

// decomposeHoisted performs the shared phase on ct.C1. On a panic anywhere
// in the decomposition, every digit matrix acquired so far and both arena
// copies are returned before the panic propagates.
func (ev *Evaluator) decomposeHoisted(ct *Ciphertext) (hdOut *hoistedDecomposition) {
	hd := &hoistedDecomposition{digits: make([][][]uint64, 0, ev.params.Digits(ct.Level))}
	defer func() {
		if hdOut == nil {
			hd.release(ev.params)
		}
	}()
	ev.decomposeHoistedInto(hd, ct, true)
	return hd
}

// decomposeHoistedInto performs the shared phase on ct.C1 into a
// caller-owned record, reusing hd.digits capacity across calls — the
// zero-allocation entry the pooled linear-transform state uses. withC0
// controls whether the coefficient-domain C0 copy is taken: the
// double-hoisted path permutes C0 in the NTT domain and skips it, saving
// qLimbs inverse transforms. The caller owns the release of hd (panic paths
// included); the c1 scratch and the state record borrowed for its stage
// methods are swept locally.
func (ev *Evaluator) decomposeHoistedInto(hd *hoistedDecomposition, ct *Ciphertext, withC0 bool) {
	params := ev.params
	rq := params.RingQ
	level := ct.Level

	hd.level = level
	c1 := ev.inttCopy(ct.C1)
	defer rq.PutPoly(c1)
	if withC0 {
		hd.c0 = ev.inttCopy(ct.C0)
	}

	s := params.getKsState()
	defer ev.ksRelease(s)
	s.bind(params, level)
	s.ev = ev
	s.cx = c1
	hd.digits = params.getDigits(hd.digits[:0], level)
	s.borrow(hd.digits) // hd owns the digits from the moment they are drawn
	if ev.pool.Workers() <= 1 {
		s.decomposeChunk(0, params.N)
		for i := 0; i < s.ext1; i++ {
			s.forwardLimb(i)
		}
	} else {
		ev.pool.ForEachChunk(params.N, s.decomposeChunk)
		ev.pool.ForEach(s.ext1, s.forwardLimb)
	}
}

// Hoisted is a reusable handle over one ciphertext's shared keyswitch
// decomposition — the batch-friendly entry point to rotation hoisting.
// Where RotateHoisted fixes the step set up front, a Hoisted handle lets a
// caller (the serving layer's batch scheduler, a BSGS loop discovering its
// steps incrementally) pay the decomposition once and request rotations one
// at a time, possibly interleaved with other work. The handle borrows digit
// matrices from the parameter set's free lists: call Release when done, or
// the arena reports the bytes as permanently in use. A Hoisted is bound to
// the evaluator that created it and is not safe for concurrent use.
type Hoisted struct {
	ev *Evaluator
	ct *Ciphertext
	hd *hoistedDecomposition
}

// Hoist performs the shared decomposition phase for ct and returns the
// handle. Panics on malformed input; TryHoist is the error-returning form.
func (ev *Evaluator) Hoist(ct *Ciphertext) *Hoisted {
	if ev.rtks == nil {
		panic("ckks: rotation requires rotation keys")
	}
	return &Hoisted{ev: ev, ct: ct, hd: ev.decomposeHoisted(ct)}
}

// TryHoist is Hoist with input validation, guard verification of ct, and
// panic recovery — the serving layer's entry point, where ciphertexts
// arrive from the wire.
func (ev *Evaluator) TryHoist(ct *Ciphertext) (h *Hoisted, err error) {
	const op = "Rotation"
	defer recoverOp(op, lvlOf(ct), &err)
	if err := ev.validIn(op, ct); err != nil {
		return nil, err
	}
	if ev.rtks == nil {
		return nil, opErr(op, ct.Level, ErrKeyMissing, "rotation keys not loaded")
	}
	if err := ev.guardInputs(op, ct); err != nil {
		// A corrupted input read is the recoverable failure mode here: each
		// re-verification re-reads every limb through the HBM hooks, which
		// is the read a transient fault decays on. Failures *inside* a
		// hoisted rotation are recovered one level up, by the scheduler's
		// job retry (a re-enqueue rebuilds the decomposition).
		if err = ev.retryVerify(op, ct, err); err != nil {
			return nil, err
		}
	}
	return &Hoisted{ev: ev, ct: ct, hd: ev.decomposeHoisted(ct)}, nil
}

// Level reports the level the decomposition was taken at.
func (h *Hoisted) Level() int { return h.hd.level }

// Rotate applies one rotation through the shared decomposition. Panics on
// a missing key or a released handle; TryRotate is the error-returning
// form.
func (h *Hoisted) Rotate(steps int) *Ciphertext {
	if h.hd == nil {
		panic("ckks: Rotate on a released Hoisted handle")
	}
	ev := h.ev
	g := galoisForRotation(steps, ev.params.N)
	if g == 1 {
		return h.ct.CopyNew()
	}
	key, ok := ev.rtks.Keys[g]
	if !ok {
		panic(fmt.Sprintf("ckks: no rotation key for step %d (g=%d)", steps, g))
	}
	return ev.rotateHoistedOne(h.hd, h.ct, g, key)
}

// TryRotate applies one rotation through the shared decomposition with the
// Try* error contract: a missing key is ErrKeyMissing, a released handle
// is ErrInvalidInput, internal panics surface as typed errors, and the
// result is sealed when integrity guards are on.
func (h *Hoisted) TryRotate(steps int) (res *Ciphertext, err error) {
	const op = "Rotation"
	ev := h.ev
	level := lvlOf(h.ct)
	defer ev.observeTryErr(op, level, &err)
	defer recoverOp(op, level, &err)
	if h.hd == nil {
		return nil, opErr(op, level, ErrInvalidInput, "hoisted handle already released")
	}
	g := galoisForRotation(steps, ev.params.N)
	if g == 1 {
		out := h.ct.CopyNew()
		ev.guardSeal(out)
		return out, nil
	}
	key, ok := ev.rtks.Keys[g]
	if !ok {
		return nil, opErr(op, level, ErrKeyMissing, "no rotation key for step %d (Galois element %d)", steps, g)
	}
	out := ev.rotateHoistedOne(h.hd, h.ct, g, key)
	ev.guardSeal(out)
	return out, nil
}

// Release returns the borrowed digit matrices to the parameter free lists.
// Safe to call more than once; the handle rejects rotations afterwards.
func (h *Hoisted) Release() {
	if h.hd != nil {
		h.hd.release(h.ev.params)
		h.hd = nil
	}
}

// RotateHoisted rotates ct by every step in steps, sharing one digit
// decomposition across all of them. Returns a map from step to result.
// Requires rotation keys for every step.
func (ev *Evaluator) RotateHoisted(ct *Ciphertext, steps []int) map[int]*Ciphertext {
	h := ev.Hoist(ct)
	defer h.Release()
	out := make(map[int]*Ciphertext, len(steps))
	for _, step := range steps {
		out[step] = h.Rotate(step)
	}
	return out
}

// rotateHoistedOne replays the shared decomposition through the keyswitch
// pipeline for one Galois element: the same limb-major inner product as
// keySwitchCoreInto, gathering each cached NTT-domain digit row through the
// rotation's Galois permutation (resolved once, here) instead of decomposing
// again. Scratch is released by the deferred sweeps on every exit, panic
// paths included; the borrowed digit matrices stay owned by hd.
func (ev *Evaluator) rotateHoistedOne(hd *hoistedDecomposition, ct *Ciphertext, g uint64, key *SwitchingKey) *Ciphertext {
	sp := ev.beginOp("Rotation")
	params := ev.params
	pool := ev.pool
	rq := params.RingQ
	level := hd.level

	res := NewCiphertext(params, level)
	res.Scale = ct.Scale
	p0 := rq.GetPolyDirty(level + 1)
	defer rq.PutPoly(p0)

	s := ev.newKsState(level, key, p0, res.C1)
	defer ev.ksRelease(s)
	s.borrow(hd.digits)
	s.perm = rq.NTTGaloisPermutation(g)

	rq.AutomorphismParallel(res.C0, hd.c0, g, pool)
	ev.ksRun(s)
	rq.NTTParallel(res.C0, pool)
	rq.AddParallel(res.C0, res.C0, p0, pool)
	ev.endOp("Rotation", level, sp)
	return res
}

// galoisForRotation mirrors automorph.GaloisElementForRotation without the
// import cycle risk growing (kept local for clarity).
func galoisForRotation(steps, n int) uint64 {
	half := n / 2
	s := ((steps % half) + half) % half
	twoN := uint64(2 * n)
	g := uint64(1)
	base := uint64(5)
	for e := s; e > 0; e >>= 1 {
		if e&1 == 1 {
			g = g * base % twoN
		}
		base = base * base % twoN
	}
	return g
}

package ckks

import (
	"poseidon/internal/ring"
	"poseidon/internal/trace"
)

// Double-hoisted linear transforms: the one linear-transform engine, the
// kernel exec runs for opLinTrans (preLinTrans in safe.go cuts the level and
// resolves the keys). The per-rotation schedule it is measured against below
// is a test reference (per_rotation_test.go), built from the basic ops alone.
// Its state lives on the op's one record (opCall, whose ltState part is
// below), and the record's sweep returns every buffer it draws. Every stage
// here — the P·ct lift included — is a method of that record or of the
// ltState / ksDigits it embeds, under ring.Run / ring.RunChunks; the engine
// reaches the pool no other way.
//
// The per-rotation BSGS schedule pays one full keyswitch — digit MACs plus
// an inverse-NTT sweep and a ModDown — for every baby-step rotation AND
// every giant-step group. Hoisting (hoisting.go) already shares the digit
// decomposition across the baby steps; double-hoisting additionally defers
// every basis reduction to the group boundary:
//
//   - each baby rotation is kept lazy: the keyswitch inner product of the
//     shared digits against the rotation key plus the P·σ_g(c0) correction
//     leave the rotation as NTT-domain residues of P·rot_g(ct) over the
//     extended basis Q_l ∪ P — no inverse NTT, no ModDown. The whole baby
//     phase is one limb-major sweep (babySweepStage): each worker walks every
//     baby rotation of its limb while that limb's digit rows stay
//     cache-resident;
//   - a giant-step group MACs its plaintext diagonals against those lazy
//     images into 128-bit columns over the full extended basis, then spends
//     exactly ONE ModDown (and one inverse-NTT sweep) on the group's c1 to
//     re-enter the Q basis for the giant rotation's own keyswitch, whose
//     inner product accumulates straight into the output residues;
//   - the output accumulator is itself kept in the extended basis until the
//     very end: one inverse-NTT sweep and two ModDowns close the whole
//     transform.
//
// Every extended-basis operand — the output, group and baby-step
// accumulators and each encoded diagonal — has the keyswitch digits' row
// layout: rows Q_0…Q_l, then P_0…P_{α−1}, one poly per ciphertext component.
// A stage on extended limb i reads row i of each; the ModDowns slice the Q
// and P rows off the same poly.
//
// For a transform with b baby steps and g giant-step groups the per-rotation
// schedule runs 2·(b+g) ModDown sweeps; the double-hoisted schedule runs
// g+1 (j≠0 groups plus the final close, +1 when a j=0 group exists). The
// digit-MAC arithmetic is identical — the win is entirely in basis
// reductions and (inverse-)NTT passes, which is what LinTransStats makes
// visible (the ckks.lintrans.* counts in bench/).
//
// Numerically the two schedules are NOT bit-identical: ModDown rounds once
// per reduction, so regrouping the reductions shifts the rounding noise by
// O(1) units — far below the encoding noise floor; the differential tests
// pin that bound.

// ltState is the double-hoisted engine's part of the op's record (opCall),
// beside the keyswitch datapath it embeds, so every stage is a method the
// stage runner (ring.Run) dispatches — a plain loop at workers=1, no
// closures, no allocations. Its slices keep their capacities across the
// record's checkouts, and the record's sweep returns every buffer it holds,
// so a steady-state transform loop allocates nothing beyond the result
// ciphertext.
type ltState struct {
	// ksDigits.digits is whichever decomposition the running keyswitch
	// stage reads: the shared baby-step decomposition during the baby sweep,
	// the giant step's once giantPhase swaps gd in. ksDigits.acc is the
	// running transform result over the extended basis, closed into the
	// destination rows by closeLinTrans. Every extended-basis operand below —
	// acc, grp, each baby — is a (c0, c1) pair of ext1-row arena polys in the
	// digit layout, so every stage indexes row i directly.
	ksDigits

	gd []*ring.Poly // digit matrices of the giant-step keyswitch; drawn only for a transform with a j ≠ 0 group

	// ctP0/ctP1 hold P·ct over the Q rows (NTT domain) — the lazy QP image
	// of the identity rotation, lifted from the operand ct; its P rows are
	// identically zero, which the MAC stage exploits by skipping identity
	// terms on P limbs.
	ctP0, ctP1 *ring.Poly

	babies [][2]*ring.Poly // lazy QP rotations, one per baby step

	grp   [2]*ring.Poly // per-group staging (reduction target of a j ≠ 0 group)
	c1Std *ring.Poly    // group c1 after its single ModDown (coeff domain, Q)

	group *ltGroup // current group

	// macRows is slice-header scratch for groupMac: the group's diagonal,
	// c0 and c1 rows, 3·len(terms) headers per extended limb, which
	// numeric.VecMACPair reads.
	macRows [][]uint64
}

// bindLinTrans binds the record to one evaluation and draws its scratch. The
// giant-step keyswitch's scratch — group staging, the group c1 and the digit
// matrices — is drawn only when some group is rotated: groups are sorted by
// j ≥ 0, so that is when the last one's j is not 0.
func (c *opCall) bindLinTrans() {
	params, lt := c.ev.params, c.lt
	c.bind(params, c.level)
	c.ctP0 = params.arena.GetDirty(c.qLimbs)
	c.ctP1 = params.arena.GetDirty(c.qLimbs)
	// The output sum is built by modular adds and starts zeroed; every other
	// accumulator is fully written by the stage that fills it.
	c.acc = params.getPair(c.ext1, true)
	if lt.groups[len(lt.groups)-1].j != 0 {
		c.grp = params.getPair(c.ext1, false)
		c.c1Std = params.arena.GetDirty(c.qLimbs)
		c.gd = params.getDigits(c.gd, c.level)
	}
	for range lt.babySteps {
		c.babies = append(c.babies, params.getPair(c.ext1, false))
	}
}

// EvaluateLinearTransform applies lt to ct with the double-hoisted schedule
// described at the top of this file: shared baby-step decomposition, lazy
// extended-basis baby rotations, one ModDown per giant-step group, one
// final close. The result, at lt.Level (a higher ct is dropped to it),
// encrypts M·slots(ct) with scale ct.Scale·lt.Scale (rescale afterwards).
// It needs the keys of lt.GaloisElements(): without one it panics
// with ErrKeyMissing before any work. The result is decrypt-equivalent to —
// but not bit-identical with — the per-rotation reference schedule (ModDown
// rounding is regrouped; the difference is O(1) ring units, far below the
// noise floor).
func (ev *Evaluator) EvaluateLinearTransform(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	return must(ev.exec(&opLinTrans, nil, operands{a: ct, lt: lt}))
}

// EvaluateLinearTransformInto is EvaluateLinearTransform writing into dst
// (resliced to the transform level; dst may alias ct). Returns dst.
func (ev *Evaluator) EvaluateLinearTransformInto(dst, ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	return must(ev.exec(&opLinTrans, dst, operands{a: ct, lt: lt}))
}

// EvaluateLinearTransformWithStats is EvaluateLinearTransform returning the
// per-call work counters (counted inline by the engine, not estimated).
func (ev *Evaluator) EvaluateLinearTransformWithStats(ct *Ciphertext, lt *LinearTransform) (out *Ciphertext, stats LinTransStats) {
	out = must(ev.exec(&opLinTrans, nil, operands{a: ct, lt: lt, stats: &stats}))
	return out, stats
}

// kernLinTrans is the engine on c.x into c.out. The descriptor is unobserved:
// one timed "LinTrans" op is reported per giant-step group — the unit the
// accelerator model's trace.LinTrans profile prices — plus one event per
// engine phase, timing detail nested around those ops. The phases count
// their work into a local the caller's stats receive.
func kernLinTrans(c *opCall) {
	ev, lt, level, dst := c.ev, c.lt, c.level, c.out
	scale := c.x.Scale * c.lt.Scale
	if len(lt.groups) == 0 {
		// All-zero matrix: write a zero ciphertext without staging a copy.
		reshapeCt(dst, level)
		for i := range dst.C0.Coeffs {
			clear(dst.C0.Coeffs[i])
			clear(dst.C1.Coeffs[i])
		}
		dst.C0.IsNTT, dst.C1.IsNTT = true, true
		dst.Scale = scale
		return
	}

	c.bindLinTrans()
	stats := LinTransStats{BabySteps: len(lt.babySteps), GiantSteps: len(lt.groups)}

	sp := ev.beginOp("hoist")
	c.hoistLinTrans(&stats)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "hoist", Level: level})

	sp = ev.beginOp("baby")
	c.babyPhase(&stats)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "baby", Level: level})

	sp = ev.beginOp("giant")
	c.giantPhase(&stats)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: level})

	sp = ev.beginOp("finish")
	c.closeLinTrans(&stats, scale)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "finish", Level: level})

	if c.stats != nil {
		*c.stats = stats
	}
}

// hoistLinTrans runs the shared phase: the baby-step digit decomposition of
// ct.C1 into the record (skipped when the transform has no baby steps), its
// forward transforms, and the scalar lift ctP0/ctP1 = P·ct over the Q rows —
// the lazy QP image of the identity rotation.
func (c *opCall) hoistLinTrans(stats *LinTransStats) {
	if len(c.lt.babySteps) > 0 {
		c.hoistDigits(c.x.C1)
		stats.InverseNTTLimbs += c.qLimbs
		stats.NTTLimbs += len(c.digits)*c.ext1 - c.qLimbs // digit-own rows are ct.C1's
	}
	ring.Run(c.ev.pool, c.qLimbs, c, (*opCall).liftStage)
	c.ctP0.IsNTT, c.ctP1.IsNTT = true, true
}

// liftStage is limb i of P·ct, both components.
func (c *opCall) liftStage(i int) {
	mod := c.params.RingQ.Moduli[i]
	p := mod.Reduce(c.params.pModQ[i])
	ps := mod.ShoupConstant(p)
	mod.VecMulShoup(c.ctP0.Coeffs[i], c.x.C0.Coeffs[i], p, ps)
	mod.VecMulShoup(c.ctP1.Coeffs[i], c.x.C1.Coeffs[i], p, ps)
}

// babyPhase materializes every baby step as a lazy extended-basis rotation
// in ONE limb-major sweep: a task owns an extended limb and walks all of the
// transform's baby rotations on it, so the limb's digit rows are fetched once and
// stay cache-resident while every rotation key streams past them.
func (c *opCall) babyPhase(stats *LinTransStats) {
	if len(c.lt.babySteps) == 0 {
		return
	}
	ring.Run(c.ev.pool, c.ext1, c, (*opCall).babySweepStage)
	stats.KeySwitches += len(c.lt.babySteps)
}

// babySweepStage builds extended limb i of every baby rotation: the
// keyswitch inner product of the shared digits (gathered through the
// rotation's permutation) against the rotation key, then on Q limbs the
// P·σ_g(c0) correction — the same gather applied to the precomputed P·c0
// image. P rows need no correction: P·x vanishes mod every p_j.
func (c *opCall) babySweepStage(i int) {
	mod := c.modulus(i)
	for k, perm := range c.lt.babyPerm {
		b := &c.babies[k]
		c.innerProduct(i, c.keys[k], perm, b[0].Coeffs[i], b[1].Coeffs[i], false)
		if i < c.qLimbs {
			addVecGather(mod, b[0].Coeffs[i], c.ctP0.Coeffs[i], perm)
		}
	}
}

// giantPhase evaluates the groups in order. Each group MACs its
// diagonals against the lazy rotations over the full extended basis; a j=0
// group folds straight into the output accumulator, while a j≠0 group
// spends its single ModDown on the group c1, runs the giant rotation's
// keyswitch inner product into the output residues, and permute-adds the
// group c0. Three pool dispatches per j≠0 group: limbs, coefficient chunks,
// limbs. The giant-step digits are swapped in for the baby decomposition,
// which the sweep returns from gd.
func (c *opCall) giantPhase(stats *LinTransStats) {
	ev, lt := c.ev, c.lt
	pool := ev.pool
	c.digits, c.gd, c.own = c.gd, c.digits, nil
	st := &c.ltState
	for gi := range lt.groups {
		g := &lt.groups[gi]
		sp := ev.beginOp("LinTrans")
		c.group, c.swk = g, c.keys[len(lt.babySteps)+gi]
		stats.PlainMACs += len(g.terms)
		need := 3 * len(g.terms) * c.ext1
		if cap(c.macRows) < need {
			c.macRows = make([][]uint64, need)
		}
		c.macRows = c.macRows[:need]
		ring.Run(pool, c.ext1, st, (*ltState).groupSumStage)
		if g.j != 0 {
			ring.RunChunks(pool, c.params.N, st, (*ltState).groupBasisChunk)
			ring.Run(pool, c.ext1, st, (*ltState).groupKsStage)
			stats.InverseNTTLimbs += c.ext1
			stats.ModDownSweeps++
			stats.NTTLimbs += len(c.digits) * c.ext1
			stats.KeySwitches++
		}
		ev.emit(sp, trace.OpEvent{Op: "LinTrans", Level: c.level})
	}
}

// resolveTerm returns the diagonal and lazy-rotation rows of term t on
// extended limb i, or ok=false for the nothing-to-add case (identity term,
// P limb).
func (st *ltState) resolveTerm(t *ltPlanTerm, i int) (ptc, r0, r1 []uint64, ok bool) {
	switch {
	case t.babyIdx >= 0:
		b := &st.babies[t.babyIdx]
		return t.diag.Coeffs[i], b[0].Coeffs[i], b[1].Coeffs[i], true
	case i < st.qLimbs:
		return t.diag.Coeffs[i], st.ctP0.Coeffs[i], st.ctP1.Coeffs[i], true
	}
	return nil, nil, nil, false
}

// groupSumStage is the plaintext half of a group on extended limb i: MAC
// every diagonal against its lazy rotation; a j = 0 group is then already
// folded into the output accumulator, any other returns its c1 to the
// coefficient domain, feeding the group's single ModDown.
func (st *ltState) groupSumStage(i int) {
	st.groupMac(i)
	if st.group.j == 0 {
		return
	}
	r, li := st.extRing(i)
	r.InverseLimb(li, st.grp[1].Coeffs[i])
}

// groupMac sums every diagonal of the current group times its lazy rotation
// on extended limb i, and leaves the two sums as residues where the group
// wants them: added onto the output rows (st.acc) when j = 0, else in the
// group rows (st.grp). Identity terms read the precomputed P·ct image and
// contribute nothing on P limbs. The sum is the keyswitch inner product's
// shape — one shared operand (the diagonal) against two rows — and one
// numeric.VecMACPair call on the limb's modulus, which runs the limb's body
// (numeric.Modulus.Body).
func (st *ltState) groupMac(i int) {
	terms := st.group.terms
	out, add := &st.grp, false
	if st.group.j == 0 {
		out, add = &st.acc, true
	}
	nt := len(terms)
	rows := st.macRows[3*nt*i : 3*nt*(i+1)]
	n := 0
	for k := range terms {
		if ptc, r0, r1, ok := st.resolveTerm(&terms[k], i); ok {
			rows[n], rows[nt+n], rows[2*nt+n] = ptc, r0, r1
			n++
		}
	}
	st.modulus(i).VecMACPair(out[0].Coeffs[i], out[1].Coeffs[i], rows[:n], rows[nt:nt+n], rows[2*nt:2*nt+n], add)
}

// groupBasisChunk takes the group c1 out of the extended basis on the
// coefficient range [lo, hi) — the ONE ModDown this group pays — and
// extends it again digit by digit for the giant rotation's keyswitch. This
// ModDown stays in the coefficient domain, where the decomposition wants its
// result at once; nothing holds that result's NTT image, so the digits are
// extended own rows included and groupKsStage transforms them all.
func (st *ltState) groupBasisChunk(lo, hi int) {
	c1 := rangeView(st.c1Std.Coeffs, lo, hi)
	g1 := st.grp[1].Coeffs
	st.params.modDown[st.level].ModDown(c1, rangeView(g1[:st.qLimbs], lo, hi), rangeView(g1[st.qLimbs:st.ext1], lo, hi))
	for d, ext := range st.digits {
		st.params.decomposer.DecomposeAndExtend(st.level, d, c1, rangeView(ext.Coeffs[:st.ext1], lo, hi))
	}
}

// groupKsStage is the giant rotation on extended limb i: forward transform
// of the limb's digit rows, keyswitch inner product under σ_j accumulated
// straight into the output rows, and the group c0 riding along as
// σ_j(c0_group) added in the extended basis — no keyswitch, just the gather.
func (st *ltState) groupKsStage(i int) {
	st.forwardLimb(i)
	o0 := st.acc[0].Coeffs[i]
	st.innerProduct(i, st.swk, st.group.perm, o0, st.acc[1].Coeffs[i], true)
	addVecGather(st.modulus(i), o0, st.grp[0].Coeffs[i], st.group.perm)
}

// closeLinTrans closes the output accumulator with the tail every keyswitch
// ends with (closeAccum): its P rows to the coefficient domain, then two
// ModDowns (c0, c1) in the NTT domain straight into the destination.
func (c *opCall) closeLinTrans(stats *LinTransStats, scale float64) {
	pool, dst := c.ev.pool, c.out
	reshapeCt(dst, c.level)
	c.res = [2]*ring.Poly{dst.C0, dst.C1}
	alpha := c.ext1 - c.qLimbs
	ring.Run(pool, 2*alpha, &c.ksDigits, (*ksDigits).inverseRowP)
	c.closeAccum(pool)
	stats.InverseNTTLimbs += 2 * alpha
	stats.ModDownSweeps += 2
	stats.NTTLimbs += 2 * c.qLimbs
	dst.Scale = scale
}

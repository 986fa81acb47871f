package ckks

import (
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/trace"
)

// Double-hoisted linear transforms: the one linear-transform engine, the
// kernel exec runs for opLinTrans (preLinTrans in safe.go cuts the level and
// resolves the keys). The per-rotation schedule it is measured against below
// is a test reference (per_rotation_test.go), built from the basic ops alone.
// Every stage here — the P·ct lift included — is an ltState or ksDigits
// method under ring.Run / ring.RunChunks; the engine reaches the pool no
// other way.
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

// ltState bundles the double-hoisted engine's per-call state so every stage
// is a method the stage runner (ring.Run) dispatches — a plain loop at
// workers=1, no closures, no allocations. Records are recycled
// through the Parameters free list (popFree / pushFree) and keep their
// slice capacities across checkouts, so a steady-state transform loop
// allocates nothing beyond the result ciphertext.
type ltState struct {
	// ksDigits.digits is whichever decomposition the running keyswitch
	// stage reads: hd.digits during the baby sweep, gd during a giant step.
	// ksDigits.acc is the running transform result over the extended basis,
	// closed into the destination rows (out) by finish. Every extended-basis
	// operand below — acc, grp, each baby — is a (c0, c1) pair of ext1-row
	// arena polys in the digit layout, so every stage indexes row i directly.
	ksDigits
	ev   *Evaluator
	plan *LinearTransformPlan

	hd hoistedDecomposition // shared baby-step digit decomposition
	gd []*ring.Poly         // digit matrices of the giant-step keyswitch; drawn only for a plan with a j ≠ 0 group

	// ctP0/ctP1 hold P·ct over the Q rows (NTT domain) — the lazy QP image
	// of the identity rotation, lifted from the operand ct; its P rows are
	// identically zero, which the MAC stage exploits by skipping identity
	// terms on P limbs.
	ct         *Ciphertext
	ctP0, ctP1 *ring.Poly

	babies [][2]*ring.Poly // lazy QP rotations, one per plan baby step
	keys   []*SwitchingKey // the call's rotation keys, in plan.keyGal order

	grp   [2]*ring.Poly // per-group staging (reduction target of a j ≠ 0 group)
	c1Std *ring.Poly    // group c1 after its single ModDown (coeff domain, Q)

	g   *ltGroup      // current group
	key *SwitchingKey // its giant rotation's key

	// macRows is slice-header scratch for groupMac on lane limbs: the
	// group's diagonal, c0 and c1 rows, 3·len(terms) headers per extended
	// limb.
	macRows [][]uint64

	stats LinTransStats
}

// acquire binds the record to one evaluation and draws its scratch. The
// giant-step keyswitch's scratch — group staging, the group c1 and the digit
// matrices — is drawn only when some group is rotated: groups are sorted by
// j ≥ 0, so that is when the last one's j is not 0.
func (st *ltState) acquire(c *opCall) {
	params, plan := c.ev.params, c.lt.plan
	st.bind(params, c.level)
	st.ev, st.plan, st.keys = c.ev, plan, c.keys
	st.stats = LinTransStats{BabySteps: len(plan.babySteps), GiantSteps: len(plan.groups)}
	rq := params.RingQ
	st.ctP0 = rq.GetPolyDirty(st.qLimbs)
	st.ctP1 = rq.GetPolyDirty(st.qLimbs)
	// The output sum is built by modular adds and starts zeroed; every other
	// accumulator is fully written by the stage that fills it.
	st.acc = params.getPair(st.ext1, true)
	if plan.groups[len(plan.groups)-1].j != 0 {
		st.grp = params.getPair(st.ext1, false)
		st.c1Std = rq.GetPolyDirty(st.qLimbs)
		st.gd = params.getDigits(st.gd, st.level)
	}
	for range st.plan.babySteps {
		st.babies = append(st.babies, params.getPair(st.ext1, false))
	}
}

// release returns every borrowed buffer and recycles the record. Nil-safe
// field by field, so it doubles as the panic-path sweep (deferred by the
// driver); slice capacities are kept for the next checkout.
func (st *ltState) release() {
	params := st.ev.params
	rq := params.RingQ
	st.hd.release(params)
	st.gd = params.putPolys(st.gd)
	st.digits, st.own = nil, nil
	clear(st.rows)
	clear(st.macRows[:cap(st.macRows)])
	releasePoly(rq, &st.ctP0)
	releasePoly(rq, &st.ctP1)
	for k := range st.babies {
		params.putPolys(st.babies[k][:])
	}
	st.babies = st.babies[:0]
	params.putPolys(st.acc[:])
	params.putPolys(st.grp[:])
	releasePoly(rq, &st.c1Std)
	st.g, st.key, st.keys = nil, nil, nil
	st.plan, st.ct = nil, nil
	st.out = [2]*ring.Poly{}
	st.ev = nil
	pushFree(params, &params.ltFree, st)
}

// EvaluateLinearTransform applies lt to ct with the double-hoisted schedule
// described at the top of this file: shared baby-step decomposition, lazy
// extended-basis baby rotations, one ModDown per giant-step group, one
// final close. The result, at lt.Level (a higher ct is dropped to it),
// encrypts M·slots(ct) with scale ct.Scale·lt.Scale (rescale afterwards).
// It needs the keys of lt.Plan().GaloisElements(): without one it panics
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
// engine phase, timing detail nested around those ops.
func kernLinTrans(c *opCall) {
	ev, plan, level, dst := c.ev, c.lt.plan, c.level, c.out
	scale := c.x.Scale * c.lt.Scale
	if len(plan.groups) == 0 {
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

	st := popFree(ev.params, &ev.params.ltFree)
	defer st.release()
	st.acquire(c)

	sp := ev.beginOp("hoist")
	st.hoist(c.x)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "hoist", Level: level})

	sp = ev.beginOp("baby")
	st.babyPhase()
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "baby", Level: level})

	sp = ev.beginOp("giant")
	st.giantPhase()
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "giant", Level: level})

	sp = ev.beginOp("finish")
	st.finish(dst, scale)
	ev.emit(sp, trace.OpEvent{Op: "LinTrans", Phase: "finish", Level: level})

	if c.stats != nil {
		*c.stats = st.stats
	}
}

// hoist runs the shared phase: the baby-step digit decomposition of ct.C1
// (skipped when the plan has no baby steps) and the scalar lift
// ctP0/ctP1 = P·ct over the Q rows — the lazy QP image of the identity
// rotation.
func (st *ltState) hoist(ct *Ciphertext) {
	ev := st.ev
	params := ev.params
	if len(st.plan.babySteps) > 0 {
		ev.decomposeHoistedInto(&st.hd, ct)
		st.stats.InverseNTTLimbs += st.qLimbs
		st.stats.NTTLimbs += params.Digits(st.level)*st.ext1 - st.qLimbs // digit-own rows are ct.C1's
	}
	st.ct = ct
	ring.Run(ev.pool, st.qLimbs, st, (*ltState).liftStage)
	st.ctP0.IsNTT, st.ctP1.IsNTT = true, true
}

// liftStage is limb i of P·ct, both components.
func (st *ltState) liftStage(i int) {
	mod := st.params.RingQ.Moduli[i]
	p := mod.Reduce(st.params.pModQ[i])
	ps := mod.ShoupConstant(p)
	mod.VecMulShoup(st.ctP0.Coeffs[i], st.ct.C0.Coeffs[i], p, ps)
	mod.VecMulShoup(st.ctP1.Coeffs[i], st.ct.C1.Coeffs[i], p, ps)
}

// babyPhase materializes every baby step as a lazy extended-basis rotation
// in ONE limb-major sweep: a task owns an extended limb and walks all of the
// plan's baby rotations on it, so the limb's digit rows are fetched once and
// stay cache-resident while every rotation key streams past them.
func (st *ltState) babyPhase() {
	if len(st.plan.babySteps) == 0 {
		return
	}
	st.digits, st.own = st.hd.digits, st.hd.own
	ring.Run(st.ev.pool, st.ext1, st, (*ltState).babySweepStage)
	st.stats.KeySwitches += len(st.plan.babySteps)
}

// babySweepStage builds extended limb i of every baby rotation: the
// keyswitch inner product of the shared digits (gathered through the
// rotation's permutation) against the rotation key, then on Q limbs the
// P·σ_g(c0) correction — the same gather applied to the precomputed P·c0
// image. P rows need no correction: P·x vanishes mod every p_j.
func (st *ltState) babySweepStage(i int) {
	mod := st.modulus(i)
	for k, perm := range st.plan.babyPerm {
		b := &st.babies[k]
		st.innerProduct(i, st.keys[k], perm, b[0].Coeffs[i], b[1].Coeffs[i], false)
		if i < st.qLimbs {
			addVecGather(mod, b[0].Coeffs[i], st.ctP0.Coeffs[i], perm)
		}
	}
}

// giantPhase evaluates the groups in plan order. Each group MACs its
// diagonals against the lazy rotations over the full extended basis; a j=0
// group folds straight into the output accumulator, while a j≠0 group
// spends its single ModDown on the group c1, runs the giant rotation's
// keyswitch inner product into the output residues, and permute-adds the
// group c0. Three pool dispatches per j≠0 group: limbs, coefficient chunks,
// limbs.
func (st *ltState) giantPhase() {
	ev := st.ev
	pool := ev.pool
	st.digits, st.own = st.gd, nil
	for gi := range st.plan.groups {
		g := &st.plan.groups[gi]
		sp := ev.beginOp("LinTrans")
		st.g, st.key = g, st.keys[len(st.plan.babySteps)+gi]
		st.stats.PlainMACs += len(g.terms)
		need := 3 * len(g.terms) * st.ext1
		if cap(st.macRows) < need {
			st.macRows = make([][]uint64, need)
		}
		st.macRows = st.macRows[:need]
		ring.Run(pool, st.ext1, st, (*ltState).groupSumStage)
		if g.j != 0 {
			ring.RunChunks(pool, st.params.N, st, (*ltState).groupBasisChunk)
			ring.Run(pool, st.ext1, st, (*ltState).groupKsStage)
			st.stats.InverseNTTLimbs += st.ext1
			st.stats.ModDownSweeps++
			st.stats.NTTLimbs += len(st.gd) * st.ext1
			st.stats.KeySwitches++
		}
		ev.emit(sp, trace.OpEvent{Op: "LinTrans", Level: st.level})
	}
}

// ltMacBlock is the column-block width of the lazy plaintext-MAC loop: the
// four 128-bit accumulator half-rows of a block (hi/lo × c0/c1) occupy
// 4·ltMacBlock·8 B = 16 KiB of groupMac's frame, which stays L1-resident
// while the group's diagonals stream through it.
const ltMacBlock = 512

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
	if st.g.j == 0 {
		return
	}
	r, li := st.extRing(i)
	r.InverseLimb(li, st.grp[1].Coeffs[i])
}

// groupMac sums every diagonal of the current group times its lazy rotation
// on extended limb i, and leaves the two sums as residues where the group
// wants them: added onto the output rows (st.acc) when j = 0, else in the
// group rows (st.grp). Identity terms read the precomputed P·ct image and
// contribute nothing on P limbs.
func (st *ltState) groupMac(i int) {
	terms := st.g.terms
	mod := st.modulus(i)
	out, add := &st.grp, false
	if st.g.j == 0 {
		out, add = &st.acc, true
	}
	out0, out1 := out[0].Coeffs[i], out[1].Coeffs[i]
	if mod.Lanes() {
		// On the IFMA52 lanes the sum is the keyswitch inner product's shape
		// — one shared operand (the diagonal) against two rows — and its two
		// sums stay in registers across every diagonal, so the limb is one
		// call over its term rows and no accumulator reaches memory.
		nt := len(terms)
		rows := st.macRows[3*nt*i : 3*nt*(i+1)]
		n := 0
		for k := range terms {
			if ptc, r0, r1, ok := st.resolveTerm(&terms[k], i); ok {
				rows[n], rows[nt+n], rows[2*nt+n] = ptc, r0, r1
				n++
			}
		}
		mod.VecInnerProductPair(out0, out1, rows[:n], rows[nt:nt+n], rows[2*nt:2*nt+n], nil, add)
		return
	}
	// Column-blocked loop interchange. Streaming full-length
	// 128-bit accumulator rows (hi+lo, read+write, both ciphertext
	// components) per diagonal made the MAC phase memory-bound — roughly 4×
	// the compulsory traffic. A column block's accumulators live on this
	// frame instead: they stay L1-resident across all of the group's
	// diagonals, the paired MAC kernel loads each diagonal's plaintext block
	// once for both ciphertext rows, and the block is reduced into its
	// destination before the next one starts — the wide sums never reach a
	// heap row. The per-coefficient MAC/fold sequence is that of a
	// full-length accumulator, so the result is bit-identical.
	for jlo := 0; jlo < st.params.N; jlo += ltMacBlock {
		jhi := min(jlo+ltMacBlock, st.params.N)
		var wide [4][ltMacBlock]uint64
		bh0, bl0 := wide[0][:jhi-jlo], wide[1][:jhi-jlo]
		bh1, bl1 := wide[2][:jhi-jlo], wide[3][:jhi-jlo]
		cnt := 0
		for k := range terms {
			ptc, r0, r1, ok := st.resolveTerm(&terms[k], i)
			if !ok {
				continue
			}
			if cnt > 0 && cnt%(numeric.MaxLazyProducts-1) == 0 {
				mod.VecFoldWide(bh0, bl0)
				mod.VecFoldWide(bh1, bl1)
			}
			numeric.VecMACWidePair(bh0, bl0, bh1, bl1, r0[jlo:jhi], r1[jlo:jhi], ptc[jlo:jhi])
			cnt++
		}
		if add {
			mod.VecReduceWideAdd(out0[jlo:jhi], bh0, bl0)
			mod.VecReduceWideAdd(out1[jlo:jhi], bh1, bl1)
		} else {
			mod.VecReduceWide(out0[jlo:jhi], bh0, bl0)
			mod.VecReduceWide(out1[jlo:jhi], bh1, bl1)
		}
	}
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
	for d, ext := range st.gd {
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
	st.innerProduct(i, st.key, st.g.perm, o0, st.acc[1].Coeffs[i], true)
	addVecGather(st.modulus(i), o0, st.grp[0].Coeffs[i], st.g.perm)
}

// finish closes the output accumulator with the tail every keyswitch ends
// with (closeAccum): its P rows to the coefficient domain, then two ModDowns
// (c0, c1) in the NTT domain straight into the destination.
func (st *ltState) finish(dst *Ciphertext, scale float64) {
	pool := st.ev.pool
	reshapeCt(dst, st.level)
	st.out = [2]*ring.Poly{dst.C0, dst.C1}
	alpha := st.ext1 - st.qLimbs
	ring.Run(pool, 2*alpha, &st.ksDigits, (*ksDigits).inverseRowP)
	st.closeAccum(pool)
	st.stats.InverseNTTLimbs += 2 * alpha
	st.stats.ModDownSweeps += 2
	st.stats.NTTLimbs += 2 * st.qLimbs
	dst.Scale = scale
}

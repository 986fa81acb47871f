package ckks

import (
	"fmt"
	"slices"

	"poseidon/internal/ring"
)

// The kernels of the basic ops: what exec (exec.go) runs once an op's
// operands have been validated and its preconditions hold. A kernel computes
// c.out — a caller-owned ciphertext, or exec's own scratch under a recovery
// policy — from the operands in its opCall record: c.x and c.y are the
// ciphertext operands cut to the level the op runs at, c.level the result
// level, c.g and c.key whatever the preconditions resolved. Kernels never
// validate, never report to the observer, and never call a surface.
//
// Scratch is drawn through c.scratch and handed back through c.release as
// soon as each piece is done; whatever a panic leaves checked out (a worker
// fault, an injected abort, inside the keyswitch pipeline or anywhere else)
// is returned by the attempt's sweep. A keyswitch binds the record's own
// keyswitch state (bindKeySwitch) rather than a second record. Limb stages
// are methods of the record or of the state it embeds, run by ring.Run, so
// at workers=1 a kernel builds no closure: together with the ring arena that
// is what makes the steady state allocation-free (enforced by
// alloc_test.go).

// reshapePoly re-slices p to `limbs` limbs through its capacity. The
// backing rows persist across down/up reshapes, so a destination created at
// a high level can be reused down the modulus chain and back.
func reshapePoly(p *ring.Poly, limbs int) {
	if limbs <= cap(p.Coeffs) {
		p.Coeffs = p.Coeffs[:limbs]
		return
	}
	panic(fmt.Sprintf("ckks: destination holds %d limbs, result needs %d — create it at a higher level", cap(p.Coeffs), limbs))
}

// reshapeCt shapes the destination to the given output level. Any integrity
// seal on the destination is invalidated: its contents are about to be
// overwritten, and exec re-seals the result when guards are on.
func reshapeCt(out *Ciphertext, level int) {
	reshapePoly(out.C0, level+1)
	reshapePoly(out.C1, level+1)
	out.Level = level
	out.seal = nil
}

// aliases reports whether two polynomials share backing storage (including
// prefix views of each other).
func aliases(a, b *ring.Poly) bool {
	return a == b || &a.Coeffs[0][0] == &b.Coeffs[0][0]
}

// limbwise runs one per-limb stage over both components of the operands cut
// to the run level. The validators admit NTT-domain operands only, so the
// result is in the NTT domain too.
func (c *opCall) limbwise(stage func(*opCall, int), scale float64) {
	reshapeCt(c.out, c.level)
	ring.Run(c.ev.pool, c.level+1, c, stage)
	c.out.C0.IsNTT, c.out.C1.IsNTT = true, true
	c.out.Scale = scale
}

func kernAdd(c *opCall)      { c.limbwise((*opCall).addLimb, c.x.Scale) }
func kernSub(c *opCall)      { c.limbwise((*opCall).subLimb, c.x.Scale) }
func kernNeg(c *opCall)      { c.limbwise((*opCall).negLimb, c.x.Scale) }
func kernAddPlain(c *opCall) { c.limbwise((*opCall).addPlainLimb, c.x.Scale) }

func (c *opCall) addLimb(i int) {
	mod := c.ev.params.RingQ.Moduli[i]
	mod.VecAdd(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.y.C0.Coeffs[i])
	mod.VecAdd(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], c.y.C1.Coeffs[i])
}

func (c *opCall) subLimb(i int) {
	mod := c.ev.params.RingQ.Moduli[i]
	for _, p := range [2][3][]uint64{
		{c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.y.C0.Coeffs[i]},
		{c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], c.y.C1.Coeffs[i]},
	} {
		o, a, b := p[0], p[1], p[2]
		for j := range o {
			o[j] = mod.Sub(a[j], b[j])
		}
	}
}

func (c *opCall) negLimb(i int) {
	mod := c.ev.params.RingQ.Moduli[i]
	for _, p := range [2][2][]uint64{{c.out.C0.Coeffs[i], c.x.C0.Coeffs[i]}, {c.out.C1.Coeffs[i], c.x.C1.Coeffs[i]}} {
		o, a := p[0], p[1]
		for j := range o {
			o[j] = mod.Neg(a[j])
		}
	}
}

// addPlainLimb adds the plaintext to C0; C1 is the operand's, copied unless
// the destination already is the operand.
func (c *opCall) addPlainLimb(i int) {
	c.ev.params.RingQ.Moduli[i].VecAdd(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.pt.Value.Coeffs[i])
	if o, x := c.out.C1.Coeffs[i], c.x.C1.Coeffs[i]; &o[0] != &x[0] {
		copy(o, x)
	}
}

// kernMulPlain is PMult: the ring's elementwise Montgomery product of each
// ciphertext row with the plaintext row, the kernel ring.MulCoeffwise runs.
func kernMulPlain(c *opCall) { c.limbwise((*opCall).mulPlainLimb, c.x.Scale*c.pt.Scale) }

func (c *opCall) mulPlainLimb(i int) {
	mod, p := c.ev.params.RingQ.Moduli[i], c.pt.Value.Coeffs[i]
	mod.VecMontMul(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], p)
	mod.VecMontMul(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], p)
}

// The scalar ops are pointwise over the NTT points, where a constant
// polynomial c is the constant vector c and X^{N/2} a vector of two values.
// Residues stay canonical, so each pass is bit-identical to the op it stands
// for on the encoded constant.
func kernMulScalar(c *opCall) { c.limbwise((*opCall).mulScalarLimb, c.x.Scale*c.s.scale) }
func kernMacScalar(c *opCall) { c.limbwise((*opCall).macScalarLimb, c.x.Scale) }
func kernAddScalar(c *opCall) { c.limbwise((*opCall).addScalarLimb, c.x.Scale) }
func kernMulByI(c *opCall)    { c.limbwise((*opCall).mulByILimb, c.x.Scale) }

// mulScalarLimb is out = s·x.
func (c *opCall) mulScalarLimb(i int) {
	mod, s, ss := c.ev.params.RingQ.Moduli[i], c.s.q[i], c.s.qs[i]
	mod.VecMulShoup(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], s, ss)
	mod.VecMulShoup(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], s, ss)
}

// macScalarLimb is out = x + s·y.
func (c *opCall) macScalarLimb(i int) {
	mod, s, ss := c.ev.params.RingQ.Moduli[i], c.s.q[i], c.s.qs[i]
	mod.VecMulShoupAdd(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.y.C0.Coeffs[i], s, ss)
	mod.VecMulShoupAdd(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], c.y.C1.Coeffs[i], s, ss)
}

// addScalarLimb is out = x + s: the constant joins every NTT point of C0.
func (c *opCall) addScalarLimb(i int) {
	c.ev.params.RingQ.Moduli[i].VecAddScalar(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.s.q[i])
	copy(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i])
}

// mulByILimb is out = X^{N/2}·x. At NTT point j the monomial takes the value
// ψ^{(2·brv(j)+1)·N/2}: the fourth root of unity ψ^{N/2} on the first half of
// the bit-reversed points, its negative on the second.
func (c *opCall) mulByILimb(i int) {
	params := c.ev.params
	mod, w, h := params.RingQ.Moduli[i], params.imagUnit[i], params.N/2
	nw := mod.Neg(w)
	ws, nws := mod.ShoupConstant(w), mod.ShoupConstant(nw)
	for _, p := range [2][2][]uint64{{c.out.C0.Coeffs[i], c.x.C0.Coeffs[i]}, {c.out.C1.Coeffs[i], c.x.C1.Coeffs[i]}} {
		mod.VecMulShoup(p[0][:h], p[1][:h], w, ws)
		mod.VecMulShoup(p[0][h:], p[1][h:], nw, nws)
	}
}

// mulRelinLimb computes limb i of the degree-2 product: o0 = a0·b0,
// o1 = a0·b1 + a1·b0, o2 = a1·b1 (all NTT-domain, element-wise — the
// paper's batched MM operator across limbs), one VecTensor pass that reads
// each operand row once. o2 is scratch slot 0.
func (c *opCall) mulRelinLimb(i int) {
	c.ev.params.RingQ.Moduli[i].VecTensor(c.out.C0.Coeffs[i], c.out.C1.Coeffs[i], c.tmp[0].Coeffs[i],
		c.x.C0.Coeffs[i], c.x.C1.Coeffs[i], c.y.C0.Coeffs[i], c.y.C1.Coeffs[i])
}

// kernMulRelin is CMult: the degree-2 product, then the keyswitch of its d2
// term back to degree 1 under the relinearization key, whose close adds its
// two results (p0, p1) ≈ (d2·s² − p1·s, p1) onto d0 and d1 where they lie.
func kernMulRelin(c *opCall) {
	ev, out, level := c.ev, c.out, c.level
	reshapeCt(out, level)
	d2 := c.scratch(0, level+1)
	ring.Run(ev.pool, level+1, c, (*opCall).mulRelinLimb)
	out.C0.IsNTT, out.C1.IsNTT, d2.IsNTT = true, true, true

	// The tensor product left d2 in the NTT domain, which is where the
	// digit-own rows are wanted; the coefficient-domain copy the basis
	// extension reads goes into p0's rows, which nothing writes before the
	// close.
	p0, p1 := c.scratch(1, level+1), c.scratch(2, level+1)
	c.bindKeySwitch(&ev.rlk.SwitchingKey, p0, p1)
	c.sum[0].dst, c.sum[0].src = out.C0, out.C0
	c.sum[1].dst, c.sum[1].src = out.C1, out.C1
	c.decompose(p0, d2)
	c.ksRun()
	c.release(0)
	c.release(1)
	c.release(2)
	out.Scale = c.x.Scale * c.y.Scale
}

// kernRescale divides by the last active prime. The destination may be the
// operand: each remaining limb is rescaled elementwise, and the operand's
// rows are taken before the destination is reshaped.
//
// Only the dropped limb leaves the NTT domain. Rescale is
// out_i = (a_i − [a_l]_{q_i})·q_l^{-1} with [a_l] the centered last limb; it
// is linear, so instead of inverse-transforming all l+1 limbs, rescaling
// coefficients and forward-transforming l results (2l+1 transforms per
// polynomial), the last limb alone is inverse-transformed, re-reduced modulo
// each q_i, forward-transformed, and subtracted in the NTT domain: l+1
// transforms, bit-identical output.
func kernRescale(c *opCall) {
	out, ct := c.out, c.x
	src0, src1 := ct.C0.Coeffs, ct.C1.Coeffs // all run+1 rows, even when out is ct
	reshapeCt(out, c.level)
	c.rescalePoly(out.C0, src0)
	c.rescalePoly(out.C1, src1)
	out.Scale = ct.Scale / float64(c.ev.params.Q[c.run])
}

// rescalePoly writes the NTT-domain rescale of src (run+1 NTT-domain rows)
// into dst (run limbs; rows may be src's own): the last limb to the
// coefficient domain in the one-limb slot 1, then one stage per remaining
// limb. When the spot-check is armed it samples one of exactly the
// transforms this operation runs (rescaleLimb), whose pre-image goes to the
// one-limb slot 2, and a disagreement fails the op here.
func (c *opCall) rescalePoly(dst *ring.Poly, src [][]uint64) {
	ev, last := c.ev, c.run
	c.dst, c.src = dst, src

	row := c.scratch(1, 1).Coeffs[0]
	copy(row, src[last])
	ev.params.RingQ.InverseLimb(last, row)

	c.spotLimb, c.spotBad = -1, false
	if g := ev.guards; g.spotOn() {
		c.spotLimb = g.pickLimb(last)
		c.scratch(2, 1)
	}
	c.scratch(0, last)
	ring.Run(ev.pool, last, c, (*opCall).rescaleLimb)
	dst.IsNTT = true
	c.release(0)
	c.release(1)
	c.release(2)
	if c.spotBad {
		panic(&OpError{Op: c.d.name, Level: last - 1, Limb: c.spotLimb, Err: ErrIntegrity,
			Detail: "redundant NTT limb recomputation mismatch"})
	}
}

// rescaleLimb is Rescale on limb i, start to finish while the row is in
// cache: the centered last limb re-reduced modulo q_i, its forward
// transform, and out_i = (a_i − that)·q_l^{-1}. On the limb the spot-check
// picked, the coefficient-domain pre-image is saved and the strict reference
// transform of the copy must agree bit for bit with what the datapath made
// (internal/ntt pins the fused plans bit-identical to that reference, so a
// disagreement is a datapath fault, not a rounding artifact).
func (c *opCall) rescaleLimb(i int) {
	rq, mid := c.ev.params.RingQ, c.tmp[0].Coeffs[i]
	rs := c.ev.params.rescaler
	rs.CenterLast(mid, c.tmp[1].Coeffs[0], c.run, i)
	if i != c.spotLimb {
		rq.ForwardLimb(i, mid)
	} else {
		pre := c.tmp[2].Coeffs[0]
		copy(pre, mid)
		rq.ForwardLimb(i, mid)
		rq.Tables[i].ForwardStrict(pre)
		c.spotBad = !slices.Equal(pre, mid)
	}
	rs.SubScale(c.dst.Coeffs[i], c.src[i], mid, c.run, i)
}

// copyIdentity is the identity automorphism: the operand itself.
func (c *opCall) copyIdentity() {
	if !aliases(c.out.C0, c.x.C0) {
		copyInto(c.out.C0, c.x.C0)
		copyInto(c.out.C1, c.x.C1)
	}
	c.out.Scale = c.x.Scale
}

// kernGalois is Rotation and Conjugation, a hoist of one: by Halevi–Shoup
// the decomposition commutes with the automorphism, so c1 is decomposed as it
// lies and the pipeline replays it under σ_g exactly as a hoisted rotation
// does (kernHoistedRotate). No polynomial is taken out of the NTT domain to
// be permuted.
func kernGalois(c *opCall) {
	if c.g == 1 {
		reshapeCt(c.out, c.level)
		c.copyIdentity()
		return
	}
	c.switchC1(c.ev.params.RingQ.NTTGaloisPermutation(c.g))
}

// kernKeySwitch re-encrypts the operand under c.key: a rotation under the
// identity permutation.
func kernKeySwitch(c *opCall) { c.switchC1(nil) }

// switchC1 sets out = (σ(c0) + p0, p1) with (p0, p1) the keyswitch of σ(c1)
// under c.key and σ the NTT-domain permutation perm (nil: the identity) —
// gathered inside the inner product and, for c0, in the close. The
// destination may be the operand: c1's rows are last read by the limb
// stages, before the close writes out.C1, and the close reads each row of c0
// before it writes it (through scratch when permuted).
func (c *opCall) switchC1(perm []int) {
	out, level := c.out, c.level
	reshapeCt(out, level)
	c.bindKeySwitch(c.key, c.scratch(1, level+1), out.C1)
	c.replayUnder(perm, out.C0, c.x.C0)
	c.decompose(c.scratch(0, level+1), c.x.C1)
	c.ksRun()
	c.release(0)
	c.release(1)
	out.Scale = c.x.Scale
}

package ckks

import (
	"fmt"

	"poseidon/internal/automorph"
	"poseidon/internal/ring"
)

// Destination-passing evaluator API. Every *Into method writes its result
// into a caller-owned ciphertext (created with NewCiphertext, typically at
// the operand level or above) and returns it, so fixed-level operation
// chains reuse the same containers instead of allocating fresh ones. The
// destination is reshaped to the output level through its slice capacity —
// a ciphertext created at level l can host any result at level ≤ l — and
// its Scale/Level/IsNTT bookkeeping is fully overwritten.
//
// Aliasing: the destination may alias an operand for every method except
// MulRelinInto (whose degree-2 product reads both operands while writing
// the destination limb by limb); Rotate/Conjugate/KeySwitch copy their
// inputs into arena scratch before touching the destination, and the
// remaining methods (Rescale included) are elementwise. MulRelinInto panics
// on aliasing.
//
// Together with the ring arena these methods make the steady state
// allocation-free: at a fixed level with workers=1, AddInto, MulPlainInto
// (memoized plaintext), MulRelinInto, RescaleInto, RotateInto and
// KeySwitchInto perform zero heap allocations per call (enforced by
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
// overwritten, and the producing operation re-seals when guards are on.
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

// AddInto computes out = a + b (HAdd). out may alias a or b.
func (ev *Evaluator) AddInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	sp := ev.beginOp("HAdd")
	a, b = ev.alignLevels(a, b)
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: Add scale mismatch %g vs %g", a.Scale, b.Scale))
	}
	reshapeCt(out, a.Level)
	rq := ev.params.RingQ
	rq.AddParallel(out.C0, a.C0, b.C0, ev.pool)
	rq.AddParallel(out.C1, a.C1, b.C1, ev.pool)
	out.Scale = a.Scale
	ev.endOp("HAdd", a.Level, sp)
	return out
}

// SubInto computes out = a − b. out may alias a or b.
func (ev *Evaluator) SubInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	sp := ev.beginOp("HAdd")
	a, b = ev.alignLevels(a, b)
	if !sameScale(a.Scale, b.Scale) {
		panic(fmt.Sprintf("ckks: Sub scale mismatch %g vs %g", a.Scale, b.Scale))
	}
	reshapeCt(out, a.Level)
	rq := ev.params.RingQ
	rq.SubParallel(out.C0, a.C0, b.C0, ev.pool)
	rq.SubParallel(out.C1, a.C1, b.C1, ev.pool)
	out.Scale = a.Scale
	ev.endOp("HAdd", a.Level, sp)
	return out
}

// NegInto computes out = −a. out may alias a.
func (ev *Evaluator) NegInto(out *Ciphertext, a *Ciphertext) *Ciphertext {
	reshapeCt(out, a.Level)
	rq := ev.params.RingQ
	rq.NegParallel(out.C0, a.C0, ev.pool)
	rq.NegParallel(out.C1, a.C1, ev.pool)
	out.Scale = a.Scale
	return out
}

// AddPlainInto computes out = ct + pt (only C0 changes). out may alias ct.
func (ev *Evaluator) AddPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) *Ciphertext {
	sp := ev.beginOp("HAddPlain")
	if !sameScale(ct.Scale, pt.Scale) {
		panic(fmt.Sprintf("ckks: AddPlain scale mismatch %g vs %g", ct.Scale, pt.Scale))
	}
	level := min(ct.Level, pt.Level)
	reshapeCt(out, level)
	rq := ev.params.RingQ
	rq.AddParallel(out.C0, prefix(ct.C0, level+1), prefix(pt.Value, level+1), ev.pool)
	if !aliases(out.C1, ct.C1) {
		copyInto(out.C1, prefix(ct.C1, level+1))
	}
	out.Scale = ct.Scale
	ev.endOp("HAddPlain", level, sp)
	return out
}

// MulPlainInto computes out = ct · pt (PMult). out may alias ct. On the
// lazy-kernel path the plaintext's Montgomery image is memoized on first
// use (see Plaintext.montImage), so repeated multiplications by the same
// plaintext skip the per-element lift and run only the REDC tail —
// bit-identical to the unmemoized product.
func (ev *Evaluator) MulPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) *Ciphertext {
	sp := ev.beginOp("PMult")
	level := min(ct.Level, pt.Level)
	limbs := level + 1
	reshapeCt(out, level)
	rq := ev.params.RingQ
	c0, c1 := prefix(ct.C0, limbs), prefix(ct.C1, limbs)

	var mont *ring.Poly
	if !rq.StrictKernels() {
		mont = pt.montImage(rq)
	}
	if mont != nil {
		if !c0.IsNTT || !c1.IsNTT || !mont.IsNTT {
			panic("ckks: MulPlain: operands must be in NTT domain")
		}
		if ev.pool.Workers() <= 1 {
			for i := 0; i < limbs; i++ {
				mod := rq.Moduli[i]
				mod.VecMRed(out.C0.Coeffs[i], c0.Coeffs[i], mont.Coeffs[i])
				mod.VecMRed(out.C1.Coeffs[i], c1.Coeffs[i], mont.Coeffs[i])
			}
		} else {
			ev.pool.ForEach(limbs, func(i int) {
				mod := rq.Moduli[i]
				mod.VecMRed(out.C0.Coeffs[i], c0.Coeffs[i], mont.Coeffs[i])
				mod.VecMRed(out.C1.Coeffs[i], c1.Coeffs[i], mont.Coeffs[i])
			})
		}
		out.C0.IsNTT, out.C1.IsNTT = true, true
	} else {
		pv := prefix(pt.Value, limbs)
		rq.MulCoeffwiseParallel(out.C0, c0, pv, ev.pool)
		rq.MulCoeffwiseParallel(out.C1, c1, pv, ev.pool)
	}
	out.Scale = ct.Scale * pt.Scale
	ev.endOp("PMult", level, sp)
	return out
}

// mulRelinLimb computes limb i of the degree-2 product: o0 = a0·b0,
// o1 = a0·b1 + a1·b0, o2 = a1·b1 (all NTT-domain, element-wise — the
// paper's batched MM operator across limbs).
func mulRelinLimb(rq *ring.Ring, i int, a, b, out *Ciphertext, d2 *ring.Poly, strict bool) {
	mod := rq.Moduli[i]
	a0, a1 := a.C0.Coeffs[i], a.C1.Coeffs[i]
	b0, b1 := b.C0.Coeffs[i], b.C1.Coeffs[i]
	o0, o1, o2 := out.C0.Coeffs[i], out.C1.Coeffs[i], d2.Coeffs[i]
	if strict {
		for j := range o0 {
			o0[j] = mod.Mul(a0[j], b0[j])
			o1[j] = mod.Add(mod.Mul(a0[j], b1[j]), mod.Mul(a1[j], b0[j]))
			o2[j] = mod.Mul(a1[j], b1[j])
		}
	} else {
		// Montgomery squares plus the fused cross term: the two cross
		// products accumulate in 128 bits and take one Barrett
		// reduction per coefficient instead of two plus an add.
		mod.VecMontMul(o0, a0, b0)
		mod.VecMulPairSum(o1, a0, b1, a1, b0)
		mod.VecMontMul(o2, a1, b1)
	}
}

// MulRelinInto computes out = a·b with relinearization (CMult). out must
// NOT alias a or b (the degree-2 product writes the destination while still
// reading both operands); it panics if it does.
func (ev *Evaluator) MulRelinInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	if ev.rlk == nil {
		panic("ckks: MulRelin requires a relinearization key")
	}
	sp := ev.beginOp("CMult")
	a, b = ev.alignLevels(a, b)
	level := a.Level
	reshapeCt(out, level)
	if aliases(out.C0, a.C0) || aliases(out.C0, b.C0) || aliases(out.C1, a.C1) || aliases(out.C1, b.C1) {
		panic("ckks: MulRelinInto destination must not alias an operand")
	}
	rq := ev.params.RingQ

	// Scratch is released by the deferred sweep on every exit — including a
	// panic inside the keyswitch pipeline — and eagerly as soon as each
	// piece is done, so the defer is a no-op on the happy path. The sweep
	// tracks releases through d2Live rather than nil-ing d2 itself: d2 is
	// captured by the worker-pool closure below, and reassigning it would
	// force a by-reference capture that moves it to the heap (breaking the
	// zero-alloc gates). Only the non-escaping defer closure sees d2Live.
	d2 := rq.GetPolyDirty(level + 1)
	d2Live := d2
	var p0, p1 *ring.Poly
	defer func() {
		if d2Live != nil {
			rq.PutPoly(d2Live)
		}
		if p0 != nil {
			rq.PutPoly(p0)
		}
		if p1 != nil {
			rq.PutPoly(p1)
		}
	}()
	strict := rq.StrictKernels()
	if ev.pool.Workers() <= 1 {
		for i := 0; i <= level; i++ {
			mulRelinLimb(rq, i, a, b, out, d2, strict)
		}
	} else {
		ev.pool.ForEach(level+1, func(i int) {
			mulRelinLimb(rq, i, a, b, out, d2, strict)
		})
	}
	out.C0.IsNTT, out.C1.IsNTT, d2.IsNTT = true, true, true

	// Keyswitch d2: contributes (p0, p1) ≈ (d2·s² − p1·s, p1).
	rq.INTTParallel(d2, ev.pool)
	p0 = rq.GetPolyDirty(level + 1)
	p1 = rq.GetPolyDirty(level + 1)
	ev.keySwitchCoreInto(p0, p1, level, d2, &ev.rlk.SwitchingKey)
	rq.PutPoly(d2)
	d2Live = nil

	rq.AddParallel(out.C0, out.C0, p0, ev.pool)
	rq.AddParallel(out.C1, out.C1, p1, ev.pool)
	rq.PutPoly(p0)
	p0 = nil
	rq.PutPoly(p1)
	p1 = nil
	out.Scale = a.Scale * b.Scale
	ev.endOp("CMult", level, sp)
	return out
}

// RescaleInto divides ct by the last active prime, writing the level−1
// result into out. out may alias ct (each remaining limb is rescaled
// elementwise, and the dropped limb is read before the destination is
// reshaped).
//
// Only the dropped limb leaves the NTT domain. Rescale is
// out_i = (a_i − [a_l]_{q_i})·q_l^{-1} with [a_l] the centered last limb; it
// is linear, so instead of inverse-transforming all l+1 limbs, rescaling
// coefficients and forward-transforming l results (2l+1 transforms per
// polynomial), the last limb alone is inverse-transformed, re-reduced modulo
// each q_i, forward-transformed, and subtracted in the NTT domain: l+1
// transforms, bit-identical output.
func (ev *Evaluator) RescaleInto(out *Ciphertext, ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	sp := ev.beginOp("Rescale")
	level := ct.Level
	src0, src1 := ct.C0.Coeffs, ct.C1.Coeffs // all level+1 rows, even when out is ct
	reshapeCt(out, level-1)
	ev.rescalePolyInto(out.C0, src0, level)
	ev.rescalePolyInto(out.C1, src1, level)
	out.Scale = ct.Scale / float64(ev.params.Q[level])
	ev.endOp("Rescale", level, sp)
	return out
}

// rescalePolyInto writes the NTT-domain rescale of src (level+1 NTT-domain
// rows) into dst (level limbs; rows may be src's own). The forward
// transforms of the re-reduced last limb go through nttParallelGuarded, so
// the spot-check samples exactly the transforms this operation runs.
func (ev *Evaluator) rescalePolyInto(dst *ring.Poly, src [][]uint64, level int) {
	rq := ev.params.RingQ
	rescaler := ev.params.rescaler
	serial := ev.pool.Workers() <= 1

	last := rq.GetVec()
	defer rq.PutVec(last)
	copy(last, src[level])
	rq.InverseLimb(level, last)

	c := rq.GetPolyDirty(level)
	defer rq.PutPoly(c)
	if serial {
		for i := 0; i < level; i++ {
			rescaler.CenterLast(c.Coeffs[i], last, level, i)
		}
	} else {
		ev.pool.ForEach(level, func(i int) {
			rescaler.CenterLast(c.Coeffs[i], last, level, i)
		})
	}
	c.IsNTT = false
	ev.nttParallelGuarded("Rescale", c)
	if serial {
		for i := 0; i < level; i++ {
			rescaler.SubScale(dst.Coeffs[i], src[i], c.Coeffs[i], level, i)
		}
	} else {
		ev.pool.ForEach(level, func(i int) {
			rescaler.SubScale(dst.Coeffs[i], src[i], c.Coeffs[i], level, i)
		})
	}
	dst.IsNTT = true
}

// RotateInto rotates the slot vector by `steps`, writing into out. out may
// alias ct.
func (ev *Evaluator) RotateInto(out *Ciphertext, ct *Ciphertext, steps int) *Ciphertext {
	g := automorph.GaloisElementForRotation(steps, ev.params.N)
	return ev.automorphismKSInto(out, ct, g)
}

// ConjugateInto conjugates every slot, writing into out. out may alias ct.
func (ev *Evaluator) ConjugateInto(out *Ciphertext, ct *Ciphertext) *Ciphertext {
	g := automorph.GaloisElementConjugate(ev.params.N)
	return ev.automorphismKSInto(out, ct, g)
}

func (ev *Evaluator) automorphismKSInto(out *Ciphertext, ct *Ciphertext, g uint64) *Ciphertext {
	level := ct.Level
	if g == 1 {
		reshapeCt(out, level)
		if !aliases(out.C0, ct.C0) {
			copyInto(out.C0, ct.C0)
			copyInto(out.C1, ct.C1)
		}
		out.Scale = ct.Scale
		return out
	}
	if ev.rtks == nil {
		panic("ckks: rotation requires rotation keys")
	}
	key, ok := ev.rtks.Keys[g]
	if !ok {
		panic(fmt.Sprintf("ckks: no rotation key for Galois element %d", g))
	}
	sp := ev.beginOp("Rotation")
	rq := ev.params.RingQ

	c0 := ev.inttCopy(ct.C0)
	var c1, a1, p0 *ring.Poly
	defer func() {
		if c0 != nil {
			rq.PutPoly(c0)
		}
		if c1 != nil {
			rq.PutPoly(c1)
		}
		if a1 != nil {
			rq.PutPoly(a1)
		}
		if p0 != nil {
			rq.PutPoly(p0)
		}
	}()
	c1 = ev.inttCopy(ct.C1)
	reshapeCt(out, level)
	a1 = rq.GetPolyDirty(level + 1)
	a1.IsNTT = false
	rq.AutomorphismParallel(out.C0, c0, g, ev.pool)
	rq.AutomorphismParallel(a1, c1, g, ev.pool)
	rq.PutPoly(c0)
	c0 = nil
	rq.PutPoly(c1)
	c1 = nil

	// Keyswitch σ_g(c1) from σ_g(s) to s; p1 lands directly in out.C1.
	p0 = rq.GetPolyDirty(level + 1)
	ev.keySwitchCoreInto(p0, out.C1, level, a1, key)
	rq.PutPoly(a1)
	a1 = nil
	ev.nttParallelGuarded("Rotation", out.C0)
	rq.AddParallel(out.C0, out.C0, p0, ev.pool)
	rq.PutPoly(p0)
	p0 = nil
	out.Scale = ct.Scale
	ev.endOp("Rotation", level, sp)
	return out
}

// KeySwitchInto re-encrypts ct under swk, writing into out. out may alias
// ct.
func (ev *Evaluator) KeySwitchInto(out *Ciphertext, ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	sp := ev.beginOp("Keyswitch")
	rq := ev.params.RingQ
	level := ct.Level
	c1 := ev.inttCopy(ct.C1)
	var p0 *ring.Poly
	defer func() {
		if c1 != nil {
			rq.PutPoly(c1)
		}
		if p0 != nil {
			rq.PutPoly(p0)
		}
	}()
	reshapeCt(out, level)
	p0 = rq.GetPolyDirty(level + 1)
	ev.keySwitchCoreInto(p0, out.C1, level, c1, swk)
	rq.PutPoly(c1)
	c1 = nil
	rq.AddParallel(out.C0, ct.C0, p0, ev.pool)
	rq.PutPoly(p0)
	p0 = nil
	out.Scale = ct.Scale
	ev.endOp("Keyswitch", level, sp)
	return out
}

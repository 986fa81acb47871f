package ckks

import (
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
)

// The validators exec (exec.go) runs before any kernel, and the table of
// basic-op descriptors it runs them for. Everything here reports through
// sentinel errors wrapped in *OpError; which surface was called only decides
// whether that error is returned (TryXInto, TryHoist, Hoisted.TryRotate,
// TryInnerSum) or panicked with (every other form).

func lvlOf(ct *Ciphertext) int {
	if ct == nil {
		return -1
	}
	return ct.Level
}

// aliasCt reports whether the destination shares storage with an operand.
func aliasCt(out, in *Ciphertext) bool {
	return out == in || aliases(out.C0, in.C0) || aliases(out.C1, in.C1)
}

// validRows checks that the first `limbs` rows of a polynomial exist and
// have length N — the shape every kernel indexes without looking.
func (ev *Evaluator) validRows(op, what string, level int, rows [][]uint64, limbs int) error {
	if len(rows) < limbs {
		return opErr(op, level, ErrInvalidInput, "%s holds %d limbs, level %d needs %d", what, len(rows), level, limbs)
	}
	for i := 0; i < limbs; i++ {
		if len(rows[i]) != ev.params.N {
			return opErr(op, level, ErrInvalidInput, "%s limb %d length != N=%d", what, i, ev.params.N)
		}
	}
	return nil
}

// validIn checks a ciphertext operand for structural sanity: non-nil, level
// within the modulus chain, enough limbs for its level, rows of length N.
func (ev *Evaluator) validIn(op string, ct *Ciphertext) error {
	if ct == nil || ct.C0 == nil || ct.C1 == nil {
		return opErr(op, lvlOf(ct), ErrInvalidInput, "nil ciphertext")
	}
	if ct.Level < 0 || ct.Level > ev.params.MaxLevel() {
		return opErr(op, ct.Level, ErrInvalidInput, "level %d outside [0, %d]", ct.Level, ev.params.MaxLevel())
	}
	if err := ev.validRows(op, "polynomial", ct.Level, ct.C0.Coeffs, ct.Level+1); err != nil {
		return err
	}
	return ev.validRows(op, "polynomial", ct.Level, ct.C1.Coeffs, ct.Level+1)
}

// mustValidIn is validIn at a panicking surface: an invalid ct panics with
// the *OpError, before the surface reads any field of it.
func (ev *Evaluator) mustValidIn(op string, ct *Ciphertext) {
	if err := ev.validIn(op, ct); err != nil {
		panic(err)
	}
}

// validPt checks a plaintext operand the same way.
func (ev *Evaluator) validPt(op string, pt *Plaintext) error {
	if pt == nil || pt.Value == nil {
		return opErr(op, -1, ErrInvalidInput, "nil plaintext")
	}
	if pt.Level < 0 || pt.Level > ev.params.MaxLevel() {
		return opErr(op, pt.Level, ErrInvalidInput, "plaintext level %d outside [0, %d]", pt.Level, ev.params.MaxLevel())
	}
	return ev.validRows(op, "plaintext", pt.Level, pt.Value.Coeffs, pt.Level+1)
}

// validDest checks that the destination can hold a level-`level` result:
// reshapeCt reslices it through its capacity, so the capacity must cover the
// limbs and the rows it will expose must have length N.
func (ev *Evaluator) validDest(op string, out *Ciphertext, level int) error {
	if out == nil || out.C0 == nil || out.C1 == nil {
		return opErr(op, level, ErrInvalidInput, "nil destination")
	}
	limbs := level + 1
	if cap(out.C0.Coeffs) < limbs || cap(out.C1.Coeffs) < limbs {
		return opErr(op, level, ErrInvalidInput,
			"destination capacity %d limbs, result needs %d — create it at a higher level",
			min(cap(out.C0.Coeffs), cap(out.C1.Coeffs)), limbs)
	}
	if err := ev.validRows(op, "destination", level, out.C0.Coeffs[:limbs], limbs); err != nil {
		return err
	}
	return ev.validRows(op, "destination", level, out.C1.Coeffs[:limbs], limbs)
}

// The ten basic ops, the two halves of a hoisted rotation and the linear
// transform, each described once. Sub shares HAdd's trace name (the
// accelerator prices them alike); Rotate and Conjugate are one descriptor
// and differ in the Galois element their surfaces pass. HNeg is not a traced
// kind, so Neg is not observed; the transform reports from its kernel, per
// phase and per giant-step group (double_hoist.go). The scalar ops are PMult
// and HAddPlain by a real constant with no polynomial built or transformed
// (see opCall.pointwise).
var (
	opAdd       = opDesc{name: "HAdd", observe: true, binary: true, pre: preSameScale, kernel: kernAdd, spot: spotAdd}
	opSub       = opDesc{name: "HAdd", observe: true, binary: true, pre: preSameScale, kernel: kernSub, spot: spotSub}
	opNeg       = opDesc{name: "HNeg", kernel: kernNeg, spot: spotNeg}
	opAddPlain  = opDesc{name: "HAddPlain", observe: true, plain: true, pre: preSameScale, kernel: kernAddPlain, spot: spotAddPlain}
	opMulPlain  = opDesc{name: "PMult", observe: true, plain: true, pre: preHeadroom, kernel: kernMulPlain, spot: spotMulPlain}
	opMulRelin  = opDesc{name: "CMult", observe: true, binary: true, noAlias: true, pre: preMulRelin, kernel: kernMulRelin}
	opRescale   = opDesc{name: "Rescale", observe: true, drop: 1, pre: preRescale, kernel: kernRescale}
	opGalois    = opDesc{name: "Rotation", observe: true, pre: preGalois, kernel: kernGalois}
	opKeySwitch = opDesc{name: "Keyswitch", observe: true, pre: preKeySwitch, kernel: kernKeySwitch}

	opMulScalar = opDesc{name: "PMult", observe: true, pre: preHeadroom, kernel: kernMulScalar}                // s·a
	opMacScalar = opDesc{name: "PMult", observe: true, binary: true, pre: preSameScale, kernel: kernMacScalar} // a + s·b
	opAddScalar = opDesc{name: "HAddPlain", observe: true, pre: preSameScale, kernel: kernAddScalar}           // a + s
	opMulByI    = opDesc{name: "MulByI", kernel: kernMulByI}                                                   // not a traced kind

	opHoist         = opDesc{name: "Rotation", noDest: true, pre: preHoist, kernel: kernHoist}
	opHoistedRotate = opDesc{name: "Rotation", observe: true, pre: preHoistedRotate, kernel: kernHoistedRotate}

	opLinTrans = opDesc{name: "LinTrans", pre: preLinTrans, kernel: kernLinTrans}
)

// otherScale is the scale of the second operand, whichever kind it is: for
// a scalar multiply-accumulate, that of the scaled addend.
func (c *opCall) otherScale() float64 {
	switch {
	case c.d.plain:
		return c.pt.Scale
	case c.lt != nil:
		return c.lt.Scale
	case c.s == nil:
		return c.b.Scale
	case c.d.binary:
		return c.b.Scale * c.s.scale
	}
	return c.s.scale
}

func preSameScale(c *opCall) error {
	if !sameScale(c.a.Scale, c.otherScale()) {
		return opErr(c.d.name, c.level, ErrScaleMismatch, "scales %g vs %g", c.a.Scale, c.otherScale())
	}
	return nil
}

// preHeadroom flags a product scale the active modulus chain cannot hold.
func preHeadroom(c *opCall) error {
	return c.ev.guardHeadroom(c.d.name, c.level, c.a.Scale*c.otherScale())
}

func preMulRelin(c *opCall) error {
	if c.ev.rlk == nil {
		return opErr(c.d.name, c.level, ErrKeyMissing, "relinearization key not loaded")
	}
	if err := c.ev.rlk.covers(c.ev.params, c.d.name, c.level); err != nil {
		return err
	}
	return preHeadroom(c)
}

func preRescale(c *opCall) error {
	if c.run == 0 {
		return opErr(c.d.name, 0, ErrLevelExhausted, "cannot rescale at level 0")
	}
	return nil
}

// preGalois resolves the rotation key of c.g.
func preGalois(c *opCall) (err error) {
	c.key, err = c.ev.rotationKey(c.d.name, c.level, c.g)
	return err
}

func preKeySwitch(c *opCall) error {
	if c.key == nil {
		return opErr(c.d.name, c.level, ErrKeyMissing, "nil switching key")
	}
	return c.key.covers(c.ev.params, c.d.name, c.level)
}

// preLinTrans runs a transform at its own level — a higher input is cut to
// it, a lower one refused — checks the product scale as PMult does, and
// resolves every rotation key the transform reads before any stage runs.
func preLinTrans(c *opCall) error {
	if c.run < c.lt.Level {
		return opErr(c.d.name, c.run, ErrLevelExhausted, "transform needs level %d, ciphertext at %d", c.lt.Level, c.run)
	}
	c.run, c.level = c.lt.Level, c.lt.Level
	if err := preHeadroom(c); err != nil {
		return err
	}
	for _, g := range c.lt.keyGal {
		key, err := c.ev.rotationKey(c.d.name, c.level, g)
		if err != nil {
			return err
		}
		c.keys = append(c.keys, key)
	}
	return nil
}

// covers reports whether the key holds what a keyswitch of op at the given
// level indexes without looking — level+1 Q rows and α P rows of length N in
// each of Digits(level) digits — as the ErrKeyMissing of that op when not.
// Keys arrive from the wire (their header names their own limbs and digits,
// not the chain's) and the bootstrapper cuts its own to the raise level.
func (swk *SwitchingKey) covers(params *Parameters, op string, level int) error {
	digits := min(len(swk.B), len(swk.A))
	upTo := digits*params.Alpha() - 1
	for d := 0; d < digits; d++ {
		for _, c := range [2]PolyQP{swk.B[d], swk.A[d]} {
			if c.Q == nil || c.P == nil || len(c.P.Coeffs) != params.Alpha() || !rowsOfN(c.Q, params.N) || !rowsOfN(c.P, params.N) {
				return opErr(op, level, ErrKeyMissing, "switching key digit %d does not fit the parameter set", d)
			}
			upTo = min(upTo, len(c.Q.Coeffs)-1)
		}
	}
	if upTo < level {
		return opErr(op, level, ErrKeyMissing, "key covers levels ≤ %d, op runs at %d", upTo, level)
	}
	return nil
}

func rowsOfN(p *ring.Poly, n int) bool {
	for _, row := range p.Coeffs {
		if len(row) != n {
			return false
		}
	}
	return true
}

func preHoist(c *opCall) error {
	if c.ev.rtks == nil {
		return opErr(c.d.name, c.level, ErrKeyMissing, "rotation keys not loaded")
	}
	return nil
}

func preHoistedRotate(c *opCall) error {
	if c.h.digits == nil {
		return opErr(c.d.name, c.level, ErrInvalidInput, "hoisted handle already released")
	}
	return preGalois(c)
}

// rotationKey resolves the switching key of Galois element g — the one place
// a missing rotation key is reported, for the basic ops, the hoisted handle
// and the linear transform alike. The identity (g = 1) needs none: nil.
func (ev *Evaluator) rotationKey(op string, level int, g uint64) (*SwitchingKey, error) {
	if g == 1 {
		return nil, nil
	}
	if ev.rtks == nil {
		return nil, opErr(op, level, ErrKeyMissing, "rotation keys not loaded")
	}
	key, ok := ev.rtks.Keys[g]
	if !ok {
		return nil, opErr(op, level, ErrKeyMissing, "no rotation key for Galois element %d", g)
	}
	return key, key.covers(ev.params, op, level)
}

// The spot-check predicates: limb i of the elementwise result against the
// strict reference arithmetic, row by row. MulPlain's recompute is the
// Barrett product — a different kernel from the Montgomery VecMontMul the
// op runs, pinned bit-identical by the numeric package's tests.

// rowsAgree reports whether, on limb i, out.C0 == f(x.C0, b0) and
// out.C1 == f(x.C1, b1) coefficient by coefficient.
func (c *opCall) rowsAgree(i int, b0, b1 []uint64, f func(x, y uint64) uint64) bool {
	return rowAgrees(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], b0, f) && rowAgrees(c.out.C1.Coeffs[i], c.x.C1.Coeffs[i], b1, f)
}

func rowAgrees(o, a, b []uint64, f func(x, y uint64) uint64) bool {
	for j := range o {
		if o[j] != f(a[j], b[j]) {
			return false
		}
	}
	return true
}

func spotAdd(c *opCall, mod numeric.Modulus, i int) bool {
	return c.rowsAgree(i, c.y.C0.Coeffs[i], c.y.C1.Coeffs[i], mod.Add)
}

func spotSub(c *opCall, mod numeric.Modulus, i int) bool {
	return c.rowsAgree(i, c.y.C0.Coeffs[i], c.y.C1.Coeffs[i], mod.Sub)
}

func spotNeg(c *opCall, mod numeric.Modulus, i int) bool {
	return c.rowsAgree(i, c.x.C0.Coeffs[i], c.x.C1.Coeffs[i], func(x, _ uint64) uint64 { return mod.Neg(x) })
}

func spotAddPlain(c *opCall, mod numeric.Modulus, i int) bool {
	return rowAgrees(c.out.C0.Coeffs[i], c.x.C0.Coeffs[i], c.pt.Value.Coeffs[i], mod.Add)
}

func spotMulPlain(c *opCall, mod numeric.Modulus, i int) bool {
	return c.rowsAgree(i, c.pt.Value.Coeffs[i], c.pt.Value.Coeffs[i], mod.Mul)
}

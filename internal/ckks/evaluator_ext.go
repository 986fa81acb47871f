package ckks

// encodeConst builds a plaintext whose every slot equals the complex
// constant c, at the given level. Its coefficients are round(Re c·scale) and
// round(Im c·scale), reduced as newScalar reduces a real constant, and its
// Scale is the requested one: the constant the slots actually hold is c
// perturbed by at most 1/(√2·scale).
// A constant needs no FFT: slots all c ⇔ polynomial Re(c) + Im(c)·X^{N/2}.
func (ev *Evaluator) encodeConst(c complex128, level int, scale float64) *Plaintext {
	rq := ev.params.RingQ
	pt := &Plaintext{Value: rq.NewPoly(level + 1), Scale: scale, Level: level}
	re, im := ev.params.newScalar(real(c), scale, level), ev.params.newScalar(imag(c), scale, level)
	for i := 0; i <= level; i++ {
		pt.Value.Coeffs[i][0], pt.Value.Coeffs[i][ev.params.Slots] = re.q[i], im.q[i]
	}
	rq.NTTParallel(pt.Value, ev.pool)
	return pt
}

// mulConst is ct·c with c encoded at the given scale: a scalar pass for a
// real constant, a plaintext product only for a genuinely complex one.
func (ev *Evaluator) mulConst(ct *Ciphertext, c complex128, scale float64) *Ciphertext {
	if imag(c) == 0 {
		s := ev.params.newScalar(real(c), scale, ct.Level)
		return must(ev.exec(&opMulScalar, nil, operands{a: ct, s: &s}))
	}
	return ev.MulPlain(ct, ev.encodeConst(c, ct.Level, scale))
}

// MulConst multiplies every slot by the constant c. The constant is encoded
// at the next prime's size so a following Rescale restores the input scale;
// the returned ciphertext has scale ct.Scale·q_level and must be rescaled
// by the caller.
func (ev *Evaluator) MulConst(ct *Ciphertext, c complex128) *Ciphertext {
	ev.params.mustValidIn("MulConst", ct)
	return ev.mulConst(ct, c, float64(ev.params.Q[ct.Level]))
}

// MulConstToScale multiplies every slot by c and rescales so the result
// lands exactly on targetScale — the standard way to align the scales of
// two evaluation branches before adding them. The constant is encoded at
// scale targetScale·q_level/ct.Scale, which must be ≥ 1.
func (ev *Evaluator) MulConstToScale(ct *Ciphertext, c complex128, targetScale float64) *Ciphertext {
	ev.params.mustValidIn("MulConstToScale", ct)
	cscale := targetScale * float64(ev.params.Q[ct.Level]) / ct.Scale
	if !(cscale >= 1) { // NaN included
		panic(opErr("MulConstToScale", ct.Level, ErrInvalidInput,
			"target scale %g is too small for level %d", targetScale, ct.Level))
	}
	out := ev.mulConst(ct, c, cscale)
	ev.RescaleInto(out, out)
	out.Scale = targetScale
	return out
}

// AddConst adds the constant c to every slot without consuming a level.
func (ev *Evaluator) AddConst(ct *Ciphertext, c complex128) *Ciphertext {
	ev.params.mustValidIn("AddConst", ct)
	if imag(c) == 0 {
		s := ev.params.newScalar(real(c), ct.Scale, ct.Level)
		return must(ev.exec(&opAddScalar, nil, operands{a: ct, s: &s}))
	}
	return ev.AddPlain(ct, ev.encodeConst(c, ct.Level, ct.Scale))
}

// TryInnerSum is the rotate-and-add reduction every rotation-based workload
// builds on: log2(n) rotations by 1, 2, 4, … each added back, after which
// slot i holds the sum of slots i … i+n−1. n must be a power of two in
// [1, Slots] (ErrInvalidInput otherwise: any other width would sum the next
// power of two's slots). Requires the power-of-two rotation keys below n;
// the first failing Rotate or Add is returned as is.
func (ev *Evaluator) TryInnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	if n < 1 || n > ev.params.Slots || n&(n-1) != 0 {
		return nil, opErr("InnerSum", lvlOf(ct), ErrInvalidInput,
			"width %d is not a power of two in [1, %d]", n, ev.params.Slots)
	}
	acc := ct
	for s := 1; s < n; s <<= 1 {
		rot, err := ev.TryRotateInto(nil, acc, s)
		if err != nil {
			return nil, err
		}
		if acc, err = ev.TryAddInto(nil, acc, rot); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MulByI multiplies every slot by the imaginary unit i — a multiplication
// by the monomial X^{N/2}, noise-free: no scale change, no level consumed,
// and in the NTT domain no transform either (see kernMulByI).
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	return must(ev.exec(&opMulByI, nil, operands{a: ct}))
}

package ckks

import (
	"math"

	"poseidon/internal/ring"
)

// encodeConst builds a plaintext whose every slot equals c, at the given
// level. The returned plaintext's Scale is the *realized* integer scale so
// downstream bookkeeping stays consistent with the actual coefficients.
// A constant needs no FFT: slots all c ⇔ polynomial Re(c) + Im(c)·X^{N/2}.
func (ev *Evaluator) encodeConst(c complex128, level int, scale float64) *Plaintext {
	rq := ev.params.RingQ
	n := ev.params.Slots
	// Ephemeral: evaluator-internal constants are used once, so memoizing
	// their Montgomery image would be pure overhead.
	pt := &Plaintext{Value: rq.NewPoly(level + 1), Scale: scale, Level: level, ephemeral: true}
	re := int64(math.Round(real(c) * scale))
	im := int64(math.Round(imag(c) * scale))
	for i := 0; i <= level; i++ {
		pt.Value.Coeffs[i][0] = rq.Moduli[i].ReduceSigned(re)
		pt.Value.Coeffs[i][n] = rq.Moduli[i].ReduceSigned(im)
	}
	rq.NTTParallel(pt.Value, ev.pool)
	return pt
}

// MulConst multiplies every slot by the constant c. The constant is encoded
// at the next prime's size so a following Rescale restores the input scale;
// the returned ciphertext has scale ct.Scale·q_level and must be rescaled
// by the caller (or use MulConstRescale).
func (ev *Evaluator) MulConst(ct *Ciphertext, c complex128) *Ciphertext {
	constScale := float64(ev.params.Q[ct.Level])
	pt := ev.encodeConst(c, ct.Level, constScale)
	return ev.MulPlain(ct, pt)
}

// MulConstRescale multiplies by a constant and rescales, returning a
// ciphertext at level−1 with (approximately) the input scale.
func (ev *Evaluator) MulConstRescale(ct *Ciphertext, c complex128) *Ciphertext {
	return ev.Rescale(ev.MulConst(ct, c))
}

// MulConstToScale multiplies every slot by c and rescales so the result
// lands exactly on targetScale — the standard way to align the scales of
// two evaluation branches before adding them. The constant is encoded at
// scale targetScale·q_level/ct.Scale, which must be ≥ 1.
func (ev *Evaluator) MulConstToScale(ct *Ciphertext, c complex128, targetScale float64) *Ciphertext {
	cscale := targetScale * float64(ev.params.Q[ct.Level]) / ct.Scale
	if cscale < 1 {
		panic("ckks: MulConstToScale target too small for this level")
	}
	pt := ev.encodeConst(c, ct.Level, cscale)
	out := ev.Rescale(ev.MulPlain(ct, pt))
	out.Scale = targetScale
	return out
}

// AddConst adds the constant c to every slot without consuming a level.
func (ev *Evaluator) AddConst(ct *Ciphertext, c complex128) *Ciphertext {
	pt := ev.encodeConst(c, ct.Level, ct.Scale)
	pt.Scale = ct.Scale
	return ev.AddPlain(ct, pt)
}

// TryInnerSum is the rotate-and-add reduction every rotation-based workload
// builds on: log2(n) rotations by 1, 2, 4, … each added back, after which
// slot i holds the sum of slots i … i+n−1 (n a power of two; the caller
// checks that). Requires the power-of-two rotation keys below n; the first
// failing Rotate or Add is returned as is.
func (ev *Evaluator) TryInnerSum(ct *Ciphertext, n int) (*Ciphertext, error) {
	acc := ct
	for s := 1; s < n; s <<= 1 {
		rot, err := ev.TryRotate(acc, s)
		if err != nil {
			return nil, err
		}
		if acc, err = ev.TryAdd(acc, rot); err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// MulByI multiplies every slot by the imaginary unit i — a multiplication
// by the monomial X^{N/2}, which is a noise-free negacyclic coefficient
// shift: no scale change, no level consumed.
func (ev *Evaluator) MulByI(ct *Ciphertext) *Ciphertext {
	out := ct.CopyNew()
	rq := ev.params.RingQ
	rq.INTTParallel(out.C0, ev.pool)
	rq.INTTParallel(out.C1, ev.pool)
	ev.mulByMonomial(out.C0, ev.params.N/2)
	ev.mulByMonomial(out.C1, ev.params.N/2)
	rq.NTTParallel(out.C0, ev.pool)
	rq.NTTParallel(out.C1, ev.pool)
	return out
}

// mulByMonomial multiplies a coefficient-domain polynomial by X^k
// (0 ≤ k < 2N) in place, with negacyclic wraparound, one limb per task.
func (ev *Evaluator) mulByMonomial(p *ring.Poly, k int) {
	rq := ev.params.RingQ
	n := ev.params.N
	k = ((k % (2 * n)) + 2*n) % (2 * n)
	ev.pool.ForEach(len(p.Coeffs), func(i int) {
		mod := rq.Moduli[i]
		src := p.Coeffs[i]
		dst := rq.GetVec()
		for j := 0; j < n; j++ {
			t := j + k
			neg := false
			if t >= 2*n {
				t -= 2 * n
			}
			if t >= n {
				t -= n
				neg = true
			}
			if neg {
				dst[t] = mod.Neg(src[j])
			} else {
				dst[t] = src[j]
			}
		}
		copy(src, dst)
		rq.PutVec(dst)
	})
}

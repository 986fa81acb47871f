package ckks

// The per-rotation linear-transform schedule: what EvaluateLinearTransform
// computed before double hoisting, kept as the decrypt-equivalence reference
// and the transform-count baseline of the tests. It is built from the basic
// ops alone (Hoist, Rotate, MulPlain, Add), so it shares no stage with the
// engine it referees.

// EvaluateLinearTransformPerRotation applies lt to ct with the per-rotation
// reference schedule: hoisted baby steps, then one full keyswitch (Rotate)
// per giant-step group. The result encrypts M·slots(ct) with scale
// ct.Scale·lt.Scale (rescale afterwards). Requires the rotation keys
// reported by lt.Rotations(). EvaluateLinearTransform is the double-hoisted
// production path; this one is kept as the differential baseline.
func (ev *Evaluator) EvaluateLinearTransformPerRotation(ct *Ciphertext, lt *LinearTransform) *Ciphertext {
	out, _ := ev.evalPerRotation(ct, lt)
	return out
}

// EvaluateLinearTransformPerRotationWithStats is
// EvaluateLinearTransformPerRotation returning the per-call work counters.
func (ev *Evaluator) EvaluateLinearTransformPerRotationWithStats(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, LinTransStats) {
	return ev.evalPerRotation(ct, lt)
}

func (ev *Evaluator) evalPerRotation(ct *Ciphertext, lt *LinearTransform) (*Ciphertext, LinTransStats) {
	if ct.Level < lt.Level {
		panic(opErr("LinTrans", ct.Level, ErrLevelExhausted, "transform needs level %d, ciphertext at %d", lt.Level, ct.Level))
	}
	if ct.Level > lt.Level {
		ct = ev.DropLevel(ct, lt.Level)
	}
	plan := lt.Plan()
	params := ev.params
	level := lt.Level
	qLimbs := level + 1
	ext1 := qLimbs + params.Alpha()
	digits := params.Digits(level)

	var stats LinTransStats
	stats.BabySteps = len(plan.babySteps)
	stats.GiantSteps = len(plan.groups)

	if len(plan.groups) == 0 {
		// All-zero matrix: a zero ciphertext is the result — fresh
		// containers are zero by construction, no copy-and-clear needed.
		z := NewCiphertext(params, level)
		z.C0.IsNTT, z.C1.IsNTT = true, true
		z.Scale = ct.Scale * lt.Scale
		return z, stats
	}

	// Baby steps in sorted order through one shared hoisted decomposition.
	inner := make([]*Ciphertext, len(plan.babySteps))
	if len(plan.babySteps) > 0 {
		h := ev.Hoist(ct)
		for k, s := range plan.babySteps {
			inner[k] = h.Rotate(s)
		}
		h.Release()
		// Shared phase: INTT of the C1 copy, forward NTTs of every digit row
		// but the digit-own ones (C1's, where they lie).
		stats.InverseNTTLimbs += qLimbs
		stats.NTTLimbs += digits*ext1 - qLimbs
		// Per rotation: the accumulators' P rows out of the NTT domain, two
		// ModDowns, the results transformed back.
		nb := len(plan.babySteps)
		stats.KeySwitches += nb
		stats.ModDownSweeps += 2 * nb
		stats.InverseNTTLimbs += nb * 2 * (ext1 - qLimbs)
		stats.NTTLimbs += nb * 2 * qLimbs
	}

	// Giant steps in sorted order: each group is the literal MulPlain/Add
	// chain over its diagonals (k PMult and k−1 HAdd, each reported by exec),
	// then its sum is rotated and added into the running result.
	var out *Ciphertext
	for _, g := range plan.groups {
		var acc *Ciphertext
		for _, t := range g.terms {
			c := ct
			if t.babyIdx >= 0 {
				c = inner[t.babyIdx]
			}
			// The diagonal's Q rows are the plaintext PMult multiplies by.
			prod := ev.MulPlain(c, &Plaintext{Value: prefix(t.diag, qLimbs), Scale: lt.Scale, Level: level})
			if acc == nil {
				acc = prod
			} else {
				acc = ev.Add(acc, prod)
			}
		}
		stats.PlainMACs += len(g.terms)
		if g.j != 0 {
			acc = ev.Rotate(acc, g.j)
			// A full keyswitch per giant step: the shared phase and the
			// per-rotation close above, once each.
			stats.KeySwitches++
			stats.ModDownSweeps += 2
			stats.InverseNTTLimbs += qLimbs + 2*(ext1-qLimbs)
			stats.NTTLimbs += digits*ext1 + qLimbs
		}
		if out == nil {
			out = acc
		} else {
			out = ev.Add(out, acc)
		}
	}
	return out, stats
}

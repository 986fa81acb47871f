package ckks

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"poseidon/internal/ring"
)

// BootstrapConfig tunes the packed bootstrapping pipeline.
type BootstrapConfig struct {
	// K bounds the modular-overflow count |I| of the raised ciphertext;
	// the sine approximation covers [−K, K]. Larger K is safer but needs a
	// higher degree.
	K int
	// Degree of the Chebyshev expansion of sin(2πx)/(2π). Zero selects
	// ceil(2πK) + 40.
	Degree int
}

// Bootstrapper refreshes exhausted ciphertexts: ModRaise → CoeffToSlot →
// EvalMod (scaled sine) → SlotToCoeff, the paper's packed bootstrapping
// [30]. One Bootstrapper owns the two encoded DFT transforms, the compiled
// sine, and the evaluation keys they need. The level schedule is read off
// the sine's plan: SlotToCoeff runs at stcLevel, EvalMod ends there,
// CoeffToSlot one level above where it starts, and ModRaise raises no higher
// — limbs above that would ride through every op only to be dropped, so the
// keys are not generated there either: they cover levels ≤ raise.
type Bootstrapper struct {
	params *Parameters
	ev     *Evaluator

	raise int              // level ModRaise raises to: stcLevel + 1 + sine.depth()
	ctsLT *LinearTransform // E^{-1}/2, applied at the raise level
	stcLT *LinearTransform // E, applied after EvalMod
	sine  *polyPlan        // Chebyshev expansion of sin(2πx)/(2π) on [−K, K], input at scale q0
}

// stcLevel is the level SlotToCoeff runs at: a refreshed ciphertext comes
// out one below, with two multiplicative levels to spend (the bootstrapper's
// own keys cover them: they reach the raise level).
const stcLevel = 3

// NewBootstrapper builds the transforms and generates the rotation keys the
// pipeline needs (using kgen/sk). The relinearization key is generated here
// too; the internal evaluator owns all key material, cut to the raise level.
func NewBootstrapper(params *Parameters, enc *Encoder, kgen *KeyGenerator, sk *SecretKey, cfg BootstrapConfig) (*Bootstrapper, error) {
	if cfg.K <= 0 {
		cfg.K = 40
	}
	if cfg.Degree == 0 {
		cfg.Degree = int(math.Ceil(2*math.Pi*float64(cfg.K))) + 40
	}
	b := &Bootstrapper{params: params}

	n := params.Slots
	// E: v ↦ slots (the decode FFT); E^{-1}: its inverse. Built by pushing
	// unit vectors through the encoder transforms.
	e := make([][]complex128, n)
	einv := make([][]complex128, n)
	for c := 0; c < n; c++ {
		unit := make([]complex128, n)
		unit[c] = 1
		fw := append([]complex128(nil), unit...)
		enc.specialFFT(fw)
		bw := append([]complex128(nil), unit...)
		enc.specialIFFT(bw)
		for r := 0; r < n; r++ {
			if e[r] == nil {
				e[r] = make([]complex128, n)
				einv[r] = make([]complex128, n)
			}
			e[r][c] = fw[r]
			einv[r][c] = bw[r] / 2 // fold the ½ of Re/Im extraction
		}
	}

	// EvalMod reads its Δ-scaled slots M/Δ as x = M/q0 at scale q0 and
	// evaluates g(x) = sin(2πx)/(2π) ≈ (M mod q0)/q0 for |m| ≪ q0.
	k := float64(cfg.K)
	b.sine = newPolyPlan(params, true, ChebyshevCoefficients(func(x float64) float64 {
		return math.Sin(2*math.Pi*x) / (2 * math.Pi)
	}, -k, k, cfg.Degree), 1/k, 0, float64(params.Q[0]))
	b.raise = stcLevel + 1 + b.sine.depth()
	if b.raise > params.MaxLevel() {
		return nil, fmt.Errorf("ckks: bootstrapping consumes %d levels (EvalMod %d of them) and returns level %d: the chain needs %d levels, has %d",
			b.MinLevelBudget(), b.sine.depth(), stcLevel-1, b.raise, params.MaxLevel())
	}
	if err := b.sine.size(b.raise - 1); err != nil {
		return nil, err
	}

	var err error
	// Diagonals are encoded at the scale of the prime their rescale drops,
	// so both transforms are scale-neutral. Both are dense: the planner splits
	// the one at the raise level, where a rotation costs most, and the other
	// takes its width so the two share one rotation-key set.
	b.ctsLT, err = NewLinearTransform(enc, einv, b.raise, float64(params.Q[b.raise]))
	if err != nil {
		return nil, err
	}
	b.stcLT, err = NewLinearTransformBSGS(enc, e, stcLevel, float64(params.Q[stcLevel]), b.ctsLT.N1)
	if err != nil {
		return nil, err
	}

	// Keys: union of both transforms' rotations plus conjugation, generated
	// in ascending step order (repeats skipped) so one seed yields one key
	// set — and one refreshed ciphertext — on every run; and only up to the
	// raise level, above which no op of the pipeline runs.
	rots := append(b.ctsLT.Rotations(), b.stcLT.Rotations()...)
	sort.Ints(rots)
	rtks := kgen.genRotationKeys(sk, rots, true, b.raise)
	rlk := kgen.genRelinearizationKey(sk, b.raise)
	b.ev = NewEvaluator(params, rlk, rtks)
	return b, nil
}

// MinLevelBudget is the number of levels the pipeline consumes: one for
// CoeffToSlot, the sine plan's depth, one for SlotToCoeff.
func (b *Bootstrapper) MinLevelBudget() int { return b.sine.depth() + 2 }

// ModRaise reinterprets a level-0 ciphertext modulo the chain up to the raise
// level: the plaintext becomes m + q0·I for a small integer polynomial I.
func (b *Bootstrapper) ModRaise(ct *Ciphertext) *Ciphertext {
	if ct.Level != 0 {
		ct = b.ev.DropLevel(ct, 0)
	}
	rq := b.params.RingQ
	c0 := ct.C0.CopyNew()
	c1 := ct.C1.CopyNew()
	rq.INTT(c0)
	rq.INTT(c1)

	top := b.raise
	out := &Ciphertext{C0: rq.NewPoly(top + 1), C1: rq.NewPoly(top + 1), Scale: ct.Scale, Level: top}
	q0 := rq.Moduli[0]
	for j := 0; j < b.params.N; j++ {
		v0 := q0.Centered(c0.Coeffs[0][j])
		v1 := q0.Centered(c1.Coeffs[0][j])
		for i := 0; i <= top; i++ {
			out.C0.Coeffs[i][j] = rq.Moduli[i].ReduceSigned(v0)
			out.C1.Coeffs[i][j] = rq.Moduli[i].ReduceSigned(v1)
		}
	}
	rq.NTT(out.C0)
	rq.NTT(out.C1)
	return out
}

// CoeffToSlot moves the raised coefficients into slots, returning two
// ciphertexts holding the real coefficient halves (slot values M_j/Δ and
// M_{j+n}/Δ at scale Δ).
func (b *Bootstrapper) CoeffToSlot(ct *Ciphertext) (ct0, ct1 *Ciphertext) {
	ev := b.ev
	v := ev.EvaluateLinearTransform(ct, b.ctsLT)
	ev.RescaleInto(v, v) // scale returns to Δ (diagonals encoded at q_top); v is owned here
	vc := ev.Conjugate(v)
	ct0 = ev.Add(v, vc)        // Re(v)·2·(1/2) = M₀ part
	ct1 = ev.SubInto(v, vc, v) // Im(v) part: −i(v−v̄)/... = M₁
	must(ev.exec(&opMulByI, ct1, operands{a: ct1}))
	return ct0, ct1
}

// EvalMod applies the scaled-sine approximation slot-wise, removing the
// q0·I overflow: input slots M/Δ at scale Δ (what CoeffToSlot returns and
// the sine is compiled for), output slots (M mod q0)/Δ.
func (b *Bootstrapper) EvalMod(ct *Ciphertext) *Ciphertext {
	return must(b.evalMod(b.ev, ct))
}

func (b *Bootstrapper) evalMod(ev *Evaluator, ct *Ciphertext) (*Ciphertext, error) {
	// Slots M/Δ read as x = M/q0 (a free scale change), and back on the way
	// out: the plan returns its input's scale.
	in := *ct
	in.Scale = ct.Scale * float64(b.params.Q[0]) / b.params.Scale
	out := NewCiphertext(b.params, stcLevel)
	err := b.sine.evalInto(ev, out, &in)
	out.Scale = ct.Scale
	return out, err
}

// SlotToCoeff moves slot values back into coefficients: the result's
// coefficient vector is (slots(ct0), slots(ct1))·Δ.
func (b *Bootstrapper) SlotToCoeff(ct0, ct1 *Ciphertext) *Ciphertext {
	ev := b.ev
	v := ev.MulByI(ct1)
	out := ev.EvaluateLinearTransform(ev.AddInto(v, ct0, v), b.stcLT)
	return ev.RescaleInto(out, out) // out is owned here
}

// Bootstrap refreshes ct (level 0, scale Δ) to a ciphertext encrypting the
// same plaintext at level stcLevel−1, scale Δ, leaving ct untouched.
//
// The two EvalMod halves share nothing, so they run as the two items of one
// ring.Run on the evaluator's pool: a plain loop at one worker, two streams
// otherwise. On a pool of two those streams are the whole bound — their limb
// stages would find it saturated and run inline — so they get a serial
// evaluator and skip the dispatch; on a wider pool spare tokens, and the
// early finisher's, flow to the inner stages. A malformed ct is
// ErrInvalidInput, one not at scale Δ ErrScaleMismatch, and the *OpError any
// step fails with is returned.
func (b *Bootstrapper) Bootstrap(ct *Ciphertext) (_ *Ciphertext, err error) {
	if err := b.ev.params.validIn("Bootstrap", ct); err != nil {
		return nil, err
	}
	if !sameScale(ct.Scale, b.params.Scale) {
		return nil, opErr("Bootstrap", ct.Level, ErrScaleMismatch, "expects a ciphertext at scale Δ=%g, has %g", b.params.Scale, ct.Scale)
	}
	defer recoverOp("Bootstrap", &ct.Level, &err)
	var half [2]*Ciphertext
	half[0], half[1] = b.CoeffToSlot(b.ModRaise(ct))
	ev := b.ev
	if ev.pool.Workers() == 2 {
		ev = ev.WithWorkers(1)
	}
	var errs [2]error
	ring.Run(b.ev.pool, 2, &half, func(half *[2]*Ciphertext, i int) { half[i], errs[i] = b.evalMod(ev, half[i]) })
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	out := b.SlotToCoeff(half[0], half[1])
	out.Scale = b.params.Scale // the transforms' Δ·q/q, to the last bit
	return out, nil
}

// Evaluator exposes the bootstrapper's key-loaded evaluator (for chaining
// computation after a refresh in examples and tests). Its keys cover levels
// ≤ the raise level: a keyswitch op above it is ErrKeyMissing.
func (b *Bootstrapper) Evaluator() *Evaluator { return b.ev }

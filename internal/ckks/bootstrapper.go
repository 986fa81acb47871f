package ckks

import (
	"fmt"
	"math"
	"sort"
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
// [30]. One Bootstrapper owns the two encoded DFT transforms and the
// evaluation keys they need.
type Bootstrapper struct {
	params *Parameters
	enc    *Encoder
	ev     *Evaluator
	cfg    BootstrapConfig

	ctsLT  *LinearTransform // E^{-1}/2, applied at the top level
	stcLT  *LinearTransform // E, applied after EvalMod
	coeffs []float64        // Chebyshev expansion of sin(2πx)/(2π)
}

// NewBootstrapper builds the transforms and generates the rotation keys the
// pipeline needs (using kgen/sk). The relinearization key is generated here
// too; the internal evaluator owns all key material.
func NewBootstrapper(params *Parameters, enc *Encoder, kgen *KeyGenerator, sk *SecretKey, cfg BootstrapConfig) (*Bootstrapper, error) {
	if cfg.K <= 0 {
		cfg.K = 40
	}
	if cfg.Degree == 0 {
		cfg.Degree = int(math.Ceil(2*math.Pi*float64(cfg.K))) + 40
	}
	b := &Bootstrapper{params: params, enc: enc, cfg: cfg}

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

	top := params.MaxLevel()
	var err error
	// Both transforms are dense and share one rotation-key set, which the
	// per-matrix planner cannot see: pin the √n split, where their baby and
	// giant steps coincide and the key set is smallest.
	n1 := 1
	for n1*n1 < n {
		n1 <<= 1
	}
	// Encode CtS diagonals at scale q_top so its rescale is scale-neutral.
	b.ctsLT, err = NewLinearTransformBSGS(enc, einv, top, float64(params.Q[top]), n1)
	if err != nil {
		return nil, err
	}
	// StC level is only known at run time (depends on EvalMod's depth), so
	// encode at a safe low level and let evaluation drop to it; we pick
	// level 3 and require EvalMod to finish at ≥ 3.
	const stcLevel = 3
	b.stcLT, err = NewLinearTransformBSGS(enc, e, stcLevel, float64(params.Q[stcLevel]), n1)
	if err != nil {
		return nil, err
	}

	b.coeffs = ChebyshevCoefficients(func(x float64) float64 {
		return math.Sin(2*math.Pi*x) / (2 * math.Pi)
	}, -float64(cfg.K), float64(cfg.K), cfg.Degree)

	// Keys: union of both transforms' rotations plus conjugation, generated
	// in ascending step order (GenRotationKeys skips repeats) so one seed
	// yields one key set — and one refreshed ciphertext — on every run.
	rots := append(b.ctsLT.Rotations(), b.stcLT.Rotations()...)
	sort.Ints(rots)
	rtks := kgen.GenRotationKeys(sk, rots, true)
	rlk := kgen.GenRelinearizationKey(sk)
	b.ev = NewEvaluator(params, rlk, rtks)
	return b, nil
}

// MinLevelBudget is the approximate number of levels the pipeline consumes.
func (b *Bootstrapper) MinLevelBudget() int {
	return 2*int(math.Ceil(math.Log2(float64(b.cfg.Degree)))) + 6
}

// ModRaise reinterprets a level-0 ciphertext modulo the full chain: the
// underlying plaintext becomes m + q0·I for a small integer polynomial I.
func (b *Bootstrapper) ModRaise(ct *Ciphertext) *Ciphertext {
	if ct.Level != 0 {
		ct = b.ev.DropLevel(ct, 0)
	}
	rq := b.params.RingQ
	c0 := ct.C0.CopyNew()
	c1 := ct.C1.CopyNew()
	rq.INTT(c0)
	rq.INTT(c1)

	top := b.params.MaxLevel()
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
	ct0 = ev.Add(v, vc)            // Re(v)·2·(1/2) = M₀ part
	ct1 = ev.MulByI(ev.Sub(vc, v)) // Im(v) part: −i(v−v̄)/... = M₁
	return ct0, ct1
}

// EvalMod applies the scaled-sine approximation slot-wise, removing the
// q0·I overflow: input slots M/Δ at scale s, output slots (M mod q0)/Δ.
func (b *Bootstrapper) EvalMod(ct *Ciphertext) *Ciphertext {
	q0 := float64(b.params.Q[0])
	delta := b.params.Scale
	// Reinterpret so slots become x = M/q0 (free scale change).
	in := ct.CopyNew()
	in.Scale = ct.Scale * q0 / delta
	// g(x) = sin(2πx)/(2π) ≈ (M mod q0)/q0 for |m| ≪ q0.
	out := b.ev.EvalChebyshev(in, b.coeffs, -float64(b.cfg.K), float64(b.cfg.K))
	// Reinterpret back: slots (M mod q0)/q0 → (M mod q0)/Δ.
	out.Scale = out.Scale * delta / q0
	return out
}

// SlotToCoeff moves slot values back into coefficients: the result's
// coefficient vector is (slots(ct0), slots(ct1))·Δ.
func (b *Bootstrapper) SlotToCoeff(ct0, ct1 *Ciphertext) *Ciphertext {
	ev := b.ev
	v := ev.Add(ct0, ev.MulByI(ct1))
	out := ev.EvaluateLinearTransform(v, b.stcLT)
	return ev.RescaleInto(out, out) // out is owned here
}

// Bootstrap refreshes ct (level 0, scale Δ) to a high-level ciphertext
// encrypting the same plaintext. The output level is
// stcLevel−1 ≥ 2 fresh multiplicative levels.
func (b *Bootstrapper) Bootstrap(ct *Ciphertext) (*Ciphertext, error) {
	if !sameScale(ct.Scale, b.params.Scale) {
		return nil, fmt.Errorf("ckks: bootstrap expects scale Δ=%g, got %g", b.params.Scale, ct.Scale)
	}
	raised := b.ModRaise(ct)
	ct0, ct1 := b.CoeffToSlot(raised)
	ct0 = b.EvalMod(ct0)
	ct1 = b.EvalMod(ct1)
	if ct0.Level < b.stcLT.Level || ct1.Level < b.stcLT.Level {
		return nil, fmt.Errorf("ckks: EvalMod exhausted levels (at %d, need ≥ %d) — lengthen the chain",
			ct0.Level, b.stcLT.Level)
	}
	out := b.SlotToCoeff(ct0, ct1)
	out.Scale = b.params.Scale // residual bookkeeping drift is below noise
	return out, nil
}

// Evaluator exposes the bootstrapper's key-loaded evaluator (for chaining
// computation after a refresh in examples and tests).
func (b *Bootstrapper) Evaluator() *Evaluator { return b.ev }

// SetWorkers re-routes the bootstrapper's internal evaluator through a
// limb-parallel pool of n workers (see Evaluator.WithWorkers). Bootstrapping
// results are bit-identical for every worker count.
func (b *Bootstrapper) SetWorkers(n int) { b.ev = b.ev.WithWorkers(n) }

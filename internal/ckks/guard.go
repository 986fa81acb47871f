package ckks

import (
	"math"
	"math/rand"
	"sync"

	"poseidon/internal/fault"
)

// Runtime integrity guards: the software counterpart of the redundancy a
// hardware accelerator needs once HBM bit flips and datapath lane faults are
// on the table. Three mechanisms, all opt-in (EnableGuards) and all free
// when off — the hot paths pay one nil pointer compare:
//
//   - Residue checksums: SealIntegrity records a sum-mod-q checksum per limb
//     of each ciphertext polynomial; every operation re-verifies its
//     sealed inputs at the operator boundary (modeling the read-back from
//     HBM, which is also where the fault injector's SiteHBM hook fires) and
//     seals its output. A single-bit flip anywhere in a sealed limb is
//     detected with certainty: the flip changes the word by ±2^b and 2^b is
//     never ≡ 0 mod an odd prime q.
//   - Modulus-headroom guard (guardHeadroom): flags a product scale the
//     active chain product no longer holds as ErrLevelExhausted before
//     results silently degrade. It checks scale against modulus, not noise
//     (a rescale at level 0 is refused with guards on or off).
//   - Redundant-limb spot-check (EnableSpotCheck): recomputes one random
//     limb of each elementwise output with reduce-every-term arithmetic,
//     and one random limb of Rescale's forward NTTs from its saved
//     coefficient-domain pre-image (opCall.rescaleLimb) — catching datapath
//     faults (stuck lanes, dropped twiddles) checksums sealed earlier
//     cannot see. Probabilistic by design: it samples one limb per
//     operation.
//
// The guards are steps of exec (exec.go), not wrappers around the kernels, so
// every surface of every op runs them: a guard failure is an *OpError
// wrapping ErrIntegrity, returned by the Try forms and panicked with by the
// others.

// guardState is shared by evaluators derived via WithWorkers (pointer copy);
// a nil *guardState on the Evaluator means guards are off. It holds only what
// detection needs; what a guard found is reported on the failed op's event
// (an Err wrapping ErrIntegrity or ErrLevelExhausted). The spot-check's limb
// sampling keeps a lock because math/rand.Rand is not concurrency-safe.
type guardState struct {
	rngMu sync.Mutex
	rng   *rand.Rand
	spot  bool
}

func (g *guardState) pickLimb(limbs int) int {
	g.rngMu.Lock()
	i := g.rng.Intn(limbs)
	g.rngMu.Unlock()
	return i
}

func (g *guardState) spotOn() bool { return g != nil && g.spot }

// integritySeal stores the per-limb residue checksums of a ciphertext's two
// polynomials. Seals are attached by SealIntegrity / exec's output boundary
// and invalidated whenever a destination is reshaped.
type integritySeal struct {
	c0, c1 []uint64
}

// EnableGuards turns the runtime integrity guards on: operations verify
// sealed inputs, seal outputs, and run the modulus-headroom check. The
// seed fixes the spot-check's limb sampling. Guards are shared with
// evaluators later derived via WithWorkers.
func (ev *Evaluator) EnableGuards(seed int64) {
	ev.guards = &guardState{rng: rand.New(rand.NewSource(seed))}
}

// EnableSpotCheck additionally arms the redundant-limb spot-check (requires
// EnableGuards first; no-op otherwise).
func (ev *Evaluator) EnableSpotCheck() {
	if ev.guards != nil {
		ev.guards.spot = true
	}
}

// DisableGuards turns the guards off for this evaluator.
func (ev *Evaluator) DisableGuards() { ev.guards = nil }

// GuardsEnabled reports whether the integrity guards are active.
func (ev *Evaluator) GuardsEnabled() bool { return ev.guards != nil }

// SealIntegrity records per-limb residue checksums for ct, arming the
// checksum guard: every subsequent operation consuming ct re-verifies
// the seal at its input boundary. Re-sealing an already-sealed ciphertext
// reuses the seal storage. An invalid ct panics with an *OpError wrapping
// ErrInvalidInput.
func (ev *Evaluator) SealIntegrity(ct *Ciphertext) {
	ev.mustValidIn("SealIntegrity", ct)
	limbs := ct.Level + 1
	s := ct.seal
	if s == nil || cap(s.c0) < limbs {
		s = &integritySeal{c0: make([]uint64, limbs), c1: make([]uint64, limbs)}
	}
	s.c0, s.c1 = s.c0[:limbs], s.c1[:limbs]
	mods := ev.params.RingQ.Moduli
	for i := 0; i < limbs; i++ {
		s.c0[i] = fault.Checksum(mods[i], ct.C0.Coeffs[i])
		s.c1[i] = fault.Checksum(mods[i], ct.C1.Coeffs[i])
	}
	ct.seal = s
}

// VerifyIntegrity models the read-back of ct from (possibly faulty) HBM and
// re-verifies its seal: the fault injector's SiteHBM hook fires on every
// limb first, then each limb's residue checksum is compared against the
// seal. Returns nil for unsealed ciphertexts (after still firing the
// hooks); a mismatch returns an *OpError wrapping ErrIntegrity naming the
// first corrupted limb, and a nil or malformed ct one wrapping
// ErrInvalidInput. Never panics.
func (ev *Evaluator) VerifyIntegrity(ct *Ciphertext) (err error) {
	if err := ev.validIn("VerifyIntegrity", ct); err != nil {
		return err
	}
	defer recoverOp("VerifyIntegrity", &ct.Level, &err)
	return ev.verifySealed("VerifyIntegrity", ct)
}

// verifySealed is the input-boundary guard shared by VerifyIntegrity and
// exec's attempt step: fire the HBM read-back injection hooks, then check the
// seal if one is attached.
func (ev *Evaluator) verifySealed(op string, ct *Ciphertext) error {
	rq := ev.params.RingQ
	if in := rq.FaultInjector(); in != nil {
		for i := 0; i <= ct.Level; i++ {
			in.OnLimbRead(fault.SiteHBM, i, ct.C0.Coeffs[i])
			in.OnLimbRead(fault.SiteHBM, i, ct.C1.Coeffs[i])
		}
	}
	s := ct.seal
	if s == nil || len(s.c0) != ct.Level+1 {
		return nil
	}
	for i := 0; i <= ct.Level; i++ {
		mod := rq.Moduli[i]
		if fault.Checksum(mod, ct.C0.Coeffs[i]) != s.c0[i] || fault.Checksum(mod, ct.C1.Coeffs[i]) != s.c1[i] {
			return &OpError{Op: op, Level: ct.Level, Limb: i, Err: ErrIntegrity,
				Detail: "residue checksum does not match seal"}
		}
	}
	return nil
}

// guardHeadroom flags modulus-headroom exhaustion for a result about to be
// produced at the given level and scale: a scale the active chain product
// no longer holds (bitsAboveScale ≤ 0). It checks scale against modulus,
// not noise.
func (ev *Evaluator) guardHeadroom(op string, level int, scale float64) error {
	if ev.guards == nil || scale <= 0 {
		return nil
	}
	if above := bitsAboveScale(ev.params, level, scale); above <= 0 {
		return opErr(op, level, ErrLevelExhausted,
			"modulus headroom exhausted: scale 2^%.1f exceeds chain product 2^%.1f",
			math.Log2(scale), above+math.Log2(scale))
	}
	return nil
}

// spotCheck recomputes one random limb of an elementwise result with the
// strict reference arithmetic (the op's spot predicate) and reports a
// mismatch as ErrIntegrity.
func (ev *Evaluator) spotCheck(c *opCall) error {
	i := ev.guards.pickLimb(c.level + 1)
	if !c.d.spot(c, ev.params.RingQ.Moduli[i], i) {
		return &OpError{Op: c.d.name, Level: c.level, Limb: i, Err: ErrIntegrity,
			Detail: "redundant limb recomputation mismatch"}
	}
	return nil
}

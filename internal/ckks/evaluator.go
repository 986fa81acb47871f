package ckks

import (
	"math"
	"slices"

	"poseidon/internal/automorph"
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/trace"
)

// Evaluator executes homomorphic operations, fanning independent RNS limbs
// (and coefficient ranges) out across a bounded worker pool — the software
// counterpart of the accelerator time-multiplexing its operator cores'
// 512-lane datapath over limbs. Results are bit-identical for every worker
// count; the differential suite in parallel_diff_test.go enforces this.
//
// Every basic operation has three surfaces — X panics on failure and
// allocates the result, XInto panics and writes a caller-owned ciphertext,
// TryXInto returns the error and writes one; a nil destination asks for a
// fresh result — and all of them are one-line calls of exec (exec.go),
// which validates, guards, runs the op's kernel (evaluator_into.go) and
// reports it. Each call runs on one pooled record (opCall), which carries
// the keyswitch datapath (ksDigits, below) and the transform's state, and
// all internal scratch is drawn from the ring arena, so a steady-state *Into
// loop at fixed level performs zero heap allocations at workers=1 (the alloc
// gates in alloc_test.go enforce this, Try forms included).
//
// Concurrency: an Evaluator is safe for concurrent use by multiple
// goroutines — keys and parameters are read-only, per-operation records and
// scratch are checked out of mutex-guarded free lists and the arena (each
// checkout is exclusively owned until returned), the one shared cache —
// RingQ's NTT-domain Galois permutations — is built under the ring's own
// lock, and the keyswitch digit extenders are immutable tables built with
// the parameters —
// provided any installed trace.OpSink is itself safe (TraceRecorder is).
// Evaluators derived via WithWorkers share keys but not pools.
type Evaluator struct {
	params *Parameters
	rlk    *RelinearizationKey
	rtks   *RotationKeySet
	sink   trace.OpSink // where emit reports; nil means ops are neither timed nor reported (observer.go)
	pool   *ring.Pool

	// guards, when non-nil, activates the runtime integrity guards
	// (residue-checksum seals, modulus-headroom checks, the opt-in
	// redundant-limb spot-check) exec runs around every op; see guard.go.
	// Shared by pointer with evaluators derived via WithWorkers.
	guards *guardState

	// recovery, when non-nil, is the installed policy: operations that fail
	// with ErrIntegrity are re-executed, transactionally (attempts run into
	// arena scratch; the destination is only written from a verified
	// attempt); see recovery.go. Shared by pointer with evaluators derived
	// via WithWorkers, like guards.
	recovery *RecoveryPolicy
}

// NewEvaluator creates an evaluator. rlk may be nil if Mul is never
// relinearized; rtks may be nil if no rotations are performed. The
// evaluator executes on the parameter set's worker pool.
func NewEvaluator(params *Parameters, rlk *RelinearizationKey, rtks *RotationKeySet) *Evaluator {
	return &Evaluator{params: params, rlk: rlk, rtks: rtks, pool: params.pool}
}

// Params returns the evaluator's parameter set.
func (ev *Evaluator) Params() *Parameters { return ev.params }

// Workers reports the evaluator's limb-parallel worker bound.
func (ev *Evaluator) Workers() int { return ev.pool.Workers() }

// WithWorkers returns an evaluator sharing this one's keys and parameters
// but executing on its own pool of n workers (n ≤ 0 selects the shared
// GOMAXPROCS-sized default pool, n == 1 is fully serial). Outputs are
// bit-identical across worker counts.
func (ev *Evaluator) WithWorkers(n int) *Evaluator {
	e2 := *ev
	if n <= 0 {
		e2.pool = ring.DefaultPool()
	} else {
		e2.pool = ring.NewPool(n)
	}
	return &e2
}

func sameScale(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// atLevel returns ct cut down to the given level: ct itself when it is
// already there (no view allocation), an unsealed view otherwise — exec
// verifies ct's own seal before it cuts.
func (ev *Evaluator) atLevel(ct *Ciphertext, level int) *Ciphertext {
	if ct.Level == level {
		return ct
	}
	return cut(ct, level)
}

// cut returns an unsealed view of ct's first level+1 limbs.
func cut(ct *Ciphertext, level int) *Ciphertext {
	return &Ciphertext{
		C0:    prefix(ct.C0, level+1),
		C1:    prefix(ct.C1, level+1),
		Scale: ct.Scale,
		Level: level,
	}
}

// DropLevel returns a view of ct at the lower level newLevel. An invalid ct,
// raising the level, or a negative one panics with an *OpError wrapping
// ErrInvalidInput.
// A sealed ct's view carries a copy of the seal's first newLevel+1
// checksums, so an op on the view re-verifies the limbs it reads.
func (ev *Evaluator) DropLevel(ct *Ciphertext, newLevel int) *Ciphertext {
	ev.params.mustValidIn("DropLevel", ct)
	if newLevel > ct.Level || newLevel < 0 {
		panic(opErr("DropLevel", ct.Level, ErrInvalidInput, "cannot drop level %d to %d", ct.Level, newLevel))
	}
	view := cut(ct, newLevel)
	if s := ct.seal; s != nil && len(s.c0) == ct.Level+1 {
		view.seal = &integritySeal{
			c0: slices.Clone(s.c0[:newLevel+1]),
			c1: slices.Clone(s.c1[:newLevel+1]),
		}
	}
	return view
}

// The surfaces of the basic ops. A destination (out) is a caller-owned
// ciphertext created with NewCiphertext, typically at the operand level or
// above: it is reshaped to the result level through its slice capacity — a
// ciphertext created at level l can host any result at level ≤ l — its
// Scale/Level/IsNTT bookkeeping is fully overwritten, and it is returned. A
// nil out asks for a fresh one. out may alias an operand for every op except
// MulRelin, whose degree-2 product reads both operands while writing the
// destination limb by limb (ErrAliasedDestination); Rotate, Conjugate and
// KeySwitch read their operand's rows for the last time in the keyswitch's
// limb stages (c1) and as the close forms each output row (c0, gathered
// through scratch when permuted), before that row is written, and the rest
// (Rescale included) are elementwise.

// Add returns a + b (HAdd, ciphertext-ciphertext). Operand scales must
// match (ErrScaleMismatch); levels are aligned automatically.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opAdd, nil, operands{a: a, b: b}))
}

// AddInto computes out = a + b.
func (ev *Evaluator) AddInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opAdd, out, operands{a: a, b: b}))
}

// TryAddInto computes out = a + b or returns a typed error.
func (ev *Evaluator) TryAddInto(out, a, b *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opAdd, out, operands{a: a, b: b})
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opSub, nil, operands{a: a, b: b}))
}

// SubInto computes out = a − b.
func (ev *Evaluator) SubInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opSub, out, operands{a: a, b: b}))
}

// TrySubInto computes out = a − b or returns a typed error.
func (ev *Evaluator) TrySubInto(out, a, b *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opSub, out, operands{a: a, b: b})
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	return must(ev.exec(&opNeg, nil, operands{a: a}))
}

// NegInto computes out = −a.
func (ev *Evaluator) NegInto(out *Ciphertext, a *Ciphertext) *Ciphertext {
	return must(ev.exec(&opNeg, out, operands{a: a}))
}

// TryNegInto computes out = −a or returns a typed error.
func (ev *Evaluator) TryNegInto(out, a *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opNeg, out, operands{a: a})
}

// AddPlain returns ct + pt (HAdd, ciphertext-plaintext): only C0 changes.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.exec(&opAddPlain, nil, operands{a: ct, pt: pt}))
}

// AddPlainInto computes out = ct + pt.
func (ev *Evaluator) AddPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.exec(&opAddPlain, out, operands{a: ct, pt: pt}))
}

// TryAddPlainInto computes out = ct + pt or returns a typed error.
func (ev *Evaluator) TryAddPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return ev.exec(&opAddPlain, out, operands{a: ct, pt: pt})
}

// MulPlain returns ct · pt (PMult). The output scale is the product of the
// operand scales; follow with Rescale to restore Δ. With guards on, a product
// scale the active modulus chain cannot hold is ErrLevelExhausted.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.exec(&opMulPlain, nil, operands{a: ct, pt: pt}))
}

// MulPlainInto computes out = ct · pt.
func (ev *Evaluator) MulPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return must(ev.exec(&opMulPlain, out, operands{a: ct, pt: pt}))
}

// TryMulPlainInto computes out = ct · pt or returns a typed error.
func (ev *Evaluator) TryMulPlainInto(out *Ciphertext, ct *Ciphertext, pt *Plaintext) (*Ciphertext, error) {
	return ev.exec(&opMulPlain, out, operands{a: ct, pt: pt})
}

// MulRelin returns a·b with relinearization (CMult): the degree-2 term d2
// is switched back to degree 1 with the relinearization key (ErrKeyMissing
// without one). The output scale is the product of the operand scales; with
// guards on, one the chain cannot hold is ErrLevelExhausted.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opMulRelin, nil, operands{a: a, b: b}))
}

// MulRelinInto computes out = a·b with relinearization. out must NOT alias
// a or b.
func (ev *Evaluator) MulRelinInto(out *Ciphertext, a, b *Ciphertext) *Ciphertext {
	return must(ev.exec(&opMulRelin, out, operands{a: a, b: b}))
}

// TryMulRelinInto computes out = a·b with relinearization or returns a
// typed error.
func (ev *Evaluator) TryMulRelinInto(out, a, b *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opMulRelin, out, operands{a: a, b: b})
}

// Rescale divides the ciphertext by the last active prime, dropping one
// level (the Rescale basic operation). At level 0 it is ErrLevelExhausted.
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	return must(ev.exec(&opRescale, nil, operands{a: ct}))
}

// RescaleInto divides ct by the last active prime, writing the level−1
// result into out.
func (ev *Evaluator) RescaleInto(out *Ciphertext, ct *Ciphertext) *Ciphertext {
	return must(ev.exec(&opRescale, out, operands{a: ct}))
}

// TryRescaleInto divides ct by the last active prime into out or returns a
// typed error.
func (ev *Evaluator) TryRescaleInto(out *Ciphertext, ct *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opRescale, out, operands{a: ct})
}

// rotG and conjG are the Galois elements of a slot rotation and of the
// conjugation.
func (ev *Evaluator) rotG(steps int) uint64 {
	return automorph.GaloisElementForRotation(steps, ev.params.N)
}
func (ev *Evaluator) conjG() uint64 { return automorph.GaloisElementConjugate(ev.params.N) }

// Rotate rotates the slot vector by `steps` positions (Rotation =
// automorphism + keyswitch). Requires the corresponding rotation key
// (ErrKeyMissing).
func (ev *Evaluator) Rotate(ct *Ciphertext, steps int) *Ciphertext {
	return must(ev.exec(&opGalois, nil, operands{a: ct, g: ev.rotG(steps)}))
}

// RotateInto rotates the slot vector by `steps`, writing into out.
func (ev *Evaluator) RotateInto(out *Ciphertext, ct *Ciphertext, steps int) *Ciphertext {
	return must(ev.exec(&opGalois, out, operands{a: ct, g: ev.rotG(steps)}))
}

// TryRotateInto rotates the slot vector by steps into out or returns a
// typed error.
func (ev *Evaluator) TryRotateInto(out *Ciphertext, ct *Ciphertext, steps int) (*Ciphertext, error) {
	return ev.exec(&opGalois, out, operands{a: ct, g: ev.rotG(steps)})
}

// Conjugate conjugates every slot.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	return must(ev.exec(&opGalois, nil, operands{a: ct, g: ev.conjG()}))
}

// ConjugateInto conjugates every slot, writing into out.
func (ev *Evaluator) ConjugateInto(out *Ciphertext, ct *Ciphertext) *Ciphertext {
	return must(ev.exec(&opGalois, out, operands{a: ct, g: ev.conjG()}))
}

// TryConjugateInto conjugates every slot into out or returns a typed error.
func (ev *Evaluator) TryConjugateInto(out *Ciphertext, ct *Ciphertext) (*Ciphertext, error) {
	return ev.exec(&opGalois, out, operands{a: ct, g: ev.conjG()})
}

// KeySwitch re-encrypts ct from the key underlying swk's target to s —
// exposed for tests and for the trace generator.
func (ev *Evaluator) KeySwitch(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	return must(ev.exec(&opKeySwitch, nil, operands{a: ct, key: swk}))
}

// KeySwitchInto re-encrypts ct under swk, writing into out.
func (ev *Evaluator) KeySwitchInto(out *Ciphertext, ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	return must(ev.exec(&opKeySwitch, out, operands{a: ct, key: swk}))
}

// TryKeySwitchInto re-encrypts ct under swk into out or returns a typed
// error (a nil or empty key is ErrKeyMissing).
func (ev *Evaluator) TryKeySwitchInto(out *Ciphertext, ct *Ciphertext, swk *SwitchingKey) (*Ciphertext, error) {
	return ev.exec(&opKeySwitch, out, operands{a: ct, key: swk})
}

func copyInto(dst, src *ring.Poly) {
	for i := range dst.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = src.IsNTT
}

// rangeView returns per-limb subslice views of the coefficient range
// [lo, hi) — how coefficient-chunked stages address disjoint work. The
// full range returns the input itself, so serial (single-chunk) execution
// allocates no view headers.
func rangeView(coeffs [][]uint64, lo, hi int) [][]uint64 {
	if lo == 0 && hi == len(coeffs[0]) {
		return coeffs
	}
	v := make([][]uint64, len(coeffs))
	for i, c := range coeffs {
		v[i] = c[lo:hi]
	}
	return v
}

// ksDigits is the datapath every keyswitch shares: the digit decomposition
// of one polynomial over the extended basis Q_l ∪ P with the three things
// done to it — RNSconv/ModUp of a coefficient range, forward transform of a
// limb, and the inner product of a limb against a switching key — and the
// extended-basis accumulator a pipeline ends by closing (ModDown by P, in the
// NTT domain). Digits and accumulator share one row layout, Q_0…Q_l then
// P_0…P_{α−1}, so extended limb i is row i of each. It is part of the op's
// one record (opCall): the plain keyswitch, the hoisted replay and the
// double-hoisted linear-transform engine run these same methods; they differ
// only in where the digits come from and what is summed into acc. Every
// arena buffer it points at is returned by the record's sweep.
type ksDigits struct {
	params *Parameters
	level  int
	qLimbs int
	ext1   int // extended limb count qLimbs + alpha

	// digits are the extended-digit matrices, full-width arena polys of
	// which the first ext1 rows are the digit over Q_l ∪ P. borrowed marks
	// a hoisted replay's: the Hoisted handle owns them, so the sweep forgets
	// them instead of returning them.
	digits   []*ring.Poly
	borrowed bool

	// own, when set, is the NTT image of the decomposed polynomial (qLimbs
	// rows): limb i of digit i/alpha is the input's own limb, so its transform
	// is own[i] — the row the caller already holds. The digit matrices then
	// leave that row unwritten and untransformed and the inner product reads
	// own[i] in its place. Nil for the giant step of a linear transform, whose
	// input comes out of a ModDown in the coefficient domain: all its rows are
	// copied and transformed.
	own [][]uint64

	// cx is the coefficient-domain copy of the decomposed polynomial, which
	// the basis extension reads: one of the call's scratch slots.
	cx *ring.Poly

	// swk is the switching key the limb stage runs against: the op's key on
	// the direct path and a hoisted replay, the running giant rotation's in a
	// linear transform.
	swk *SwitchingKey

	// rows is slice-header scratch for the inner product: 3·len(digits)
	// headers per extended limb (the limb's digit rows and both key rows),
	// so concurrent limb tasks never share an entry. Its capacity is kept
	// across the record's checkouts.
	rows [][]uint64

	// acc holds the sums of both ciphertext components over Q_l ∪ P, one
	// ext1-row arena poly each in the digit layout (Q_0…Q_l, then P_0…P_{α−1})
	// — Q rows in the NTT domain, P rows in the coefficient domain by the time
	// it is closed; closeAccum divides it by P into res, qLimbs limbs each.
	acc [2]*ring.Poly
	res [2]*ring.Poly

	// sum[c], when set, is what the close does with result component c
	// (res[c]) while its row is still in cache: dst = σ(src) + res[c], limb by
	// limb — the addition every keyswitch kernel ends with (MulRelin's d0/d1,
	// KeySwitch's c0, a rotation's σ(c0)). perm is that σ as an NTT-domain
	// gather, nil for the identity: the Galois permutation a rotation's
	// pipeline replays under, which its limb stage also gathers the digits
	// through.
	sum  [2]struct{ dst, src *ring.Poly }
	perm []int
}

// bind sizes the record for a keyswitch at the given level.
func (k *ksDigits) bind(params *Parameters, level int) {
	k.params = params
	k.level = level
	k.qLimbs = level + 1
	k.ext1 = k.qLimbs + params.Alpha()
	need := 3 * params.Digits(level) * k.ext1
	if cap(k.rows) < need {
		k.rows = make([][]uint64, need)
	}
	k.rows = k.rows[:need]
}

// extRing resolves extended-limb index i to its ring and the limb's index
// there: Q limbs first, then P limbs.
func (k *ksDigits) extRing(i int) (*ring.Ring, int) { return k.params.extRing(k.qLimbs, i) }

// modulus resolves extended-limb index i to its modulus.
func (k *ksDigits) modulus(i int) numeric.Modulus {
	r, li := k.extRing(i)
	return r.Moduli[li]
}

// ownDigit is the digit whose row on extended limb i is own[i], or −1.
func (k *ksDigits) ownDigit(i int) int {
	if k.own == nil || i >= k.qLimbs {
		return -1
	}
	return i / k.params.Alpha()
}

// forwardLimb transforms extended limb i of every digit to the NTT domain,
// the one own stands for excepted.
func (k *ksDigits) forwardLimb(i int) {
	r, li := k.extRing(i)
	skip := k.ownDigit(i)
	for d, ext := range k.digits {
		if d != skip {
			r.ForwardLimb(li, ext.Coeffs[i])
		}
	}
}

// innerProduct is the ONE keyswitch inner-product stage. On extended limb i
// it sets, per coefficient j,
//
//	out0[j] (+)= Σ_d digit_d[perm[j]]·key.B_d[j]    out1[j] (+)= Σ_d digit_d[perm[j]]·key.A_d[j]
//
// — both sums over the digits carried in registers and closed by a single
// Barrett reduction (numeric.VecInnerProductPair), the Galois permutation of
// a hoisted replay gathered in the same pass (perm nil = plain keyswitch),
// add folding onto the residues already in the out rows (the giant step of a
// linear transform accumulates straight into the transform's output). With
// q < 2^61 up to numeric.MaxLazyProducts−1 products fit one 128-bit sum;
// deeper digit chains fold in between. On an AVX-512 host the same call
// sums eight coefficients a register on the limb's body
// (numeric.Modulus.Body), with the same result: the IFMA52 lanes for a
// prime below 2^50, the DQ lanes for q0 and the P primes.
func (k *ksDigits) innerProduct(i int, key *SwitchingKey, perm []int, out0, out1 []uint64, add bool) {
	nd := len(k.digits)
	mod := k.modulus(i)
	rows := k.rows[3*nd*i : 3*nd*(i+1)]
	x, kb, ka := rows[:nd], rows[nd:2*nd], rows[2*nd:]
	for d, ext := range k.digits {
		x[d] = ext.Coeffs[i]
		if i < k.qLimbs {
			kb[d], ka[d] = key.B[d].Q.Coeffs[i], key.A[d].Q.Coeffs[i]
		} else {
			kb[d], ka[d] = key.B[d].P.Coeffs[i-k.qLimbs], key.A[d].P.Coeffs[i-k.qLimbs]
		}
	}
	if d := k.ownDigit(i); d >= 0 {
		x[d] = k.own[i]
	}
	mod.VecInnerProductPair(out0, out1, x, kb, ka, perm, add)
}

// inverseRowP takes P row t of the accumulator (c0's alpha rows first, then
// c1's) to the coefficient domain — the only rows ModDown reads there. The Q
// rows stay as they are: closeAccum divides them in the NTT domain.
func (k *ksDigits) inverseRowP(t int) {
	alpha := k.ext1 - k.qLimbs
	k.params.RingP.InverseLimb(t%alpha, k.acc[t/alpha].Coeffs[k.qLimbs+t%alpha])
}

// modDownChunk writes, on coefficient range [lo, hi), the part of the
// ModDown of both accumulators that reads their P rows — c = −conv(a_P)·P⁻¹,
// coefficient domain — into res.
func (k *ksDigits) modDownChunk(lo, hi int) {
	md := k.params.modDown[k.level]
	for c, a := range k.acc {
		md.Correction(rangeView(k.res[c].Coeffs, lo, hi), rangeView(a.Coeffs[k.qLimbs:k.ext1], lo, hi))
	}
}

// nttOutStage closes output limb t (res[0]'s rows first, then res[1]'s): the
// row holds c, and
//
//	NTT(ModDown(a_Q, a_P)) = NTT(c) + P⁻¹·NTT(a_Q)
//
// is an identity on canonical residues (the transform is linear and ModDown's
// sum takes one reduction either way), so the accumulator's Q row is used as
// it lies and was never inverse-transformed. A component with a sum target
// is added into it here. Under the identity permutation that is one pass,
// dst = src + c + P⁻¹·a_Q, and the row itself is left as c: a bound sum
// target makes res[c] scratch that nothing reads after the close (MulRelin's
// and switchC1's slots, released when the op ends).
func (k *ksDigits) nttOutStage(t int) {
	c, i := t/k.qLimbs, t%k.qLimbs
	rq := k.params.RingQ
	mod, row, acc := rq.Moduli[i], k.res[c].Coeffs[i], k.acc[c].Coeffs[i]
	rq.ForwardLimb(i, row)
	w, ws := k.params.modDown[k.level].PInv(i)

	sum := &k.sum[c]
	switch {
	case sum.dst == nil:
		mod.VecMulShoupAdd(row, row, acc, w, ws)
	case k.perm == nil:
		mod.VecMulShoupAddSum(sum.dst.Coeffs[i], row, sum.src.Coeffs[i], acc, w, ws)
	default:
		// Gathered in the scratch row, then copied: dst may be src (a rotation
		// into its own operand), which a gather must not overwrite as it reads.
		mod.VecMulShoupAdd(row, row, acc, w, ws)
		addVecGather(mod, row, sum.src.Coeffs[i], k.perm)
		copy(sum.dst.Coeffs[i], row)
	}
}

// closeAccum is the tail of every extended-basis pipeline: ModDown by P of
// the accumulator — its P rows in the coefficient domain (inverseRowP), its
// Q rows still in the NTT domain — into out, NTT domain. The P rows'
// share is computed chunked across coefficients, then each output limb is
// transformed and closed in one task.
func (k *ksDigits) closeAccum(pool *ring.Pool) {
	ring.RunChunks(pool, k.params.N, k, (*ksDigits).modDownChunk)
	ring.Run(pool, 2*k.qLimbs, k, (*ksDigits).nttOutStage)
	k.res[0].IsNTT, k.res[1].IsNTT = true, true
	for _, sum := range k.sum {
		if sum.dst != nil {
			sum.dst.IsNTT = true
		}
	}
	// Eager release; the record's sweep finds the fields nil and never
	// double-Puts. Nothing is drawn from the arena between the two stages, so
	// holding the Q rows through the second costs no peak.
	k.params.putPolys(k.acc[:])
}

// inttLimb is limb i of the coefficient-domain copy of the decomposed
// polynomial: its NTT image (own) copied into cx and inverse-transformed in
// one task.
func (k *ksDigits) inttLimb(i int) {
	copy(k.cx.Coeffs[i], k.own[i])
	k.params.RingQ.InverseLimb(i, k.cx.Coeffs[i])
}

// decomposeChunk is the RNSconv/ModUp of every digit on the coefficient
// range [lo, hi).
func (k *ksDigits) decomposeChunk(lo, hi int) {
	src := rangeView(k.cx.Coeffs, lo, hi)
	for d, ext := range k.digits {
		k.params.decomposer.ExtendDigit(k.level, d, src, rangeView(ext.Coeffs[:k.ext1], lo, hi))
	}
}

// limbStage runs everything extended limb i needs between the basis
// extension and the ModDown in one task, so the limb's digit rows are
// transformed, multiplied and dropped while they are cache-resident: the
// forward NTT of each digit row (direct path only: borrowed digits are
// already transformed), the inner product against the key, and — on a P limb
// — the inverse NTT of both sums.
func (k *ksDigits) limbStage(i int) {
	if !k.borrowed {
		k.forwardLimb(i)
	}
	k.innerProduct(i, k.swk, k.perm, k.acc[0].Coeffs[i], k.acc[1].Coeffs[i], false)
	if li := i - k.qLimbs; li >= 0 {
		k.inverseRowP(li)
		k.inverseRowP(k.ext1 - k.qLimbs + li)
	}
}

// replayUnder makes the pipeline a rotation's: the digits are gathered
// through perm — σ_g in the NTT domain; nil is the identity, a plain
// keyswitch — and the close sets dst = σ_g(c0) + res[0] through the same
// permutation.
func (k *ksDigits) replayUnder(perm []int, dst, c0 *ring.Poly) {
	k.perm = perm
	k.sum[0].dst, k.sum[0].src = dst, c0
}

// bindKeySwitch binds the record's keyswitch state to one keyswitch at the
// op's level under key writing (p0, p1), the accumulators drawn dirty from
// the arena — the inner-product stage overwrites every row.
func (c *opCall) bindKeySwitch(key *SwitchingKey, p0, p1 *ring.Poly) {
	params := c.ev.params
	c.bind(params, c.level)
	c.swk = key
	c.res = [2]*ring.Poly{p0, p1}
	c.acc = params.getPair(c.ext1, false)
}

// decompose takes the coefficient-domain copy of x into cx (scratch of x's
// shape, fully overwritten), draws the digit matrices into the record and
// extends the digits — x itself, NTT domain, standing for the digit-own
// rows — chunked across coefficients: every coefficient's basis extension
// is self-contained. The forward transforms are left to the limb stage.
func (c *opCall) decompose(cx, x *ring.Poly) {
	if !x.IsNTT {
		panic("ckks: decompose requires NTT-domain input")
	}
	k := &c.ksDigits
	k.cx, k.own = cx, x.Coeffs
	ring.Run(c.ev.pool, k.qLimbs, k, (*ksDigits).inttLimb)
	cx.IsNTT = false
	k.digits = k.params.getDigits(k.digits, k.level)
	ring.RunChunks(c.ev.pool, k.params.N, k, (*ksDigits).decomposeChunk)
}

// ksRun is the paper's Keyswitch pipeline from the extended digits on, shared
// by the direct and hoisted paths: inner product with the key digits in the
// NTT domain, then ModDown by P — res, NTT domain, qLimbs limbs, fully
// overwritten — and the sums the kernel asked for.
//
// Loop order is limb-major, the order that keeps the working set on chip:
// all digits are extended first (decompose, chunked across coefficients),
// then each extended limb is one task (limbStage) that transforms its digit
// rows and sums Σ_d digit_d·key_d for both key rows in registers — where a
// digit-major order streams every partial sum through memory once per digit.
// The close chunks across coefficients again. Every sum is the canonical
// residue of an exact integer, so the result is bit-identical for every
// worker count and kernel tier. Every stage is a method of the op's pooled
// record dispatched by the stage runner: at workers=1 that is a plain loop —
// no closures, no allocations — and all scratch is recycled: accumulators
// and extended digits through the arena, the record through the Parameters
// free list.
func (c *opCall) ksRun() {
	ring.Run(c.ev.pool, c.ext1, &c.ksDigits, (*ksDigits).limbStage)
	c.closeAccum(c.ev.pool)
}

// addVecGather accumulates a[perm[j]] into out[j] modulo mod — a modular
// add with an NTT-domain Galois permutation gathered in the same pass.
func addVecGather(mod numeric.Modulus, out, a []uint64, perm []int) {
	for j, p := range perm {
		out[j] = mod.Add(out[j], a[p])
	}
}

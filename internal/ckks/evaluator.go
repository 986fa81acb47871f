package ckks

import (
	"math"

	"poseidon/internal/numeric"
	"poseidon/internal/ring"
)

// Evaluator executes homomorphic operations, fanning independent RNS limbs
// (and coefficient ranges) out across a bounded worker pool — the software
// counterpart of the accelerator time-multiplexing its operator cores'
// 512-lane datapath over limbs. Results are bit-identical for every worker
// count; the differential suite in parallel_diff_test.go enforces this.
//
// Every operation exists in two forms: an allocating method (Add, MulRelin,
// Rescale, …) that returns a fresh ciphertext, and a destination-passing
// *Into variant (AddInto, MulRelinInto, RescaleInto, …) that writes into a
// caller-owned ciphertext. The allocating methods are thin wrappers over the
// *Into forms. All internal scratch is drawn from the ring arena, so a
// steady-state *Into loop at fixed level performs zero heap allocations at
// workers=1 (the alloc gates in alloc_test.go enforce this); see
// evaluator_into.go.
//
// Concurrency: an Evaluator is safe for concurrent use by multiple
// goroutines — keys and parameters are read-only, per-operation scratch is
// checked out of mutex-guarded arenas (each checkout is exclusively owned
// until returned), the shared caches (HFAuto routing maps, NTT-domain
// permutations) are internally locked, and the keyswitch digit extenders
// are immutable tables built with the parameters — provided
// any installed OpObserver is itself safe (TraceRecorder is). Evaluators
// derived via WithWorkers share keys but not pools.
type Evaluator struct {
	params   *Parameters
	rlk      *RelinearizationKey
	rtks     *RotationKeySet
	observer OpObserver
	// spans is the observer re-typed when it also implements SpanObserver:
	// non-nil switches every basic op into timed-span mode (see observer.go).
	// Kept as a separate field so the per-op gate is a single nil check.
	spans SpanObserver
	pool  *ring.Pool

	// guards, when non-nil, activates the runtime integrity guards
	// (residue-checksum seals, noise-budget checks, the opt-in
	// redundant-limb spot-check) used by the Try* API; see guard.go. Shared
	// by pointer with evaluators derived via WithWorkers.
	guards *guardState

	// recovery, when non-nil, re-executes Try* operations that fail with
	// ErrIntegrity, transactionally (attempts run into arena scratch; the
	// destination is only written from a verified attempt); see
	// recovery.go. Shared by pointer with evaluators derived via
	// WithWorkers, like guards.
	recovery *recoveryState
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

// alignLevels drops limbs from the deeper ciphertext so both operands live
// at the same level, returning aligned views. At equal levels the inputs
// are returned unchanged (no view allocation).
func (ev *Evaluator) alignLevels(a, b *Ciphertext) (*Ciphertext, *Ciphertext) {
	if a.Level == b.Level {
		return a, b
	}
	if a.Level > b.Level {
		a = &Ciphertext{C0: prefix(a.C0, b.Level+1), C1: prefix(a.C1, b.Level+1), Scale: a.Scale, Level: b.Level}
	} else {
		b = &Ciphertext{C0: prefix(b.C0, a.Level+1), C1: prefix(b.C1, a.Level+1), Scale: b.Scale, Level: a.Level}
	}
	return a, b
}

// DropLevel returns a view of ct at the lower level newLevel.
func (ev *Evaluator) DropLevel(ct *Ciphertext, newLevel int) *Ciphertext {
	if newLevel > ct.Level {
		panic("ckks: DropLevel cannot raise level")
	}
	return &Ciphertext{
		C0:    prefix(ct.C0, newLevel+1),
		C1:    prefix(ct.C1, newLevel+1),
		Scale: ct.Scale,
		Level: newLevel,
	}
}

// Add returns a + b (HAdd, ciphertext-ciphertext). Operand scales must
// match; levels are aligned automatically.
func (ev *Evaluator) Add(a, b *Ciphertext) *Ciphertext {
	return ev.AddInto(NewCiphertext(ev.params, min(a.Level, b.Level)), a, b)
}

// Sub returns a − b.
func (ev *Evaluator) Sub(a, b *Ciphertext) *Ciphertext {
	return ev.SubInto(NewCiphertext(ev.params, min(a.Level, b.Level)), a, b)
}

// Neg returns −a.
func (ev *Evaluator) Neg(a *Ciphertext) *Ciphertext {
	return ev.NegInto(NewCiphertext(ev.params, a.Level), a)
}

// AddPlain returns ct + pt (HAdd, ciphertext-plaintext): only C0 changes.
func (ev *Evaluator) AddPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return ev.AddPlainInto(NewCiphertext(ev.params, min(ct.Level, pt.Level)), ct, pt)
}

func copyInto(dst, src *ring.Poly) {
	for i := range dst.Coeffs {
		copy(dst.Coeffs[i], src.Coeffs[i])
	}
	dst.IsNTT = src.IsNTT
}

// MulPlain returns ct · pt (PMult). The output scale is the product of the
// operand scales; follow with Rescale to restore Δ.
func (ev *Evaluator) MulPlain(ct *Ciphertext, pt *Plaintext) *Ciphertext {
	return ev.MulPlainInto(NewCiphertext(ev.params, min(ct.Level, pt.Level)), ct, pt)
}

// MulRelin returns a·b with relinearization (CMult): the degree-2 term d2
// is switched back to degree 1 with the relinearization key. The output
// scale is the product of the operand scales.
func (ev *Evaluator) MulRelin(a, b *Ciphertext) *Ciphertext {
	return ev.MulRelinInto(NewCiphertext(ev.params, min(a.Level, b.Level)), a, b)
}

// Rescale divides the ciphertext by the last active prime, dropping one
// level (the Rescale basic operation).
func (ev *Evaluator) Rescale(ct *Ciphertext) *Ciphertext {
	if ct.Level == 0 {
		panic("ckks: cannot rescale at level 0")
	}
	return ev.RescaleInto(NewCiphertext(ev.params, ct.Level-1), ct)
}

// inttCopy returns an arena copy of the NTT-domain polynomial p,
// transformed to the coefficient domain, with copy and inverse transform
// fused into one limb-parallel pass. Release with RingQ.PutPoly. If the
// transform panics mid-way (a worker fault, an injected abort), the scratch
// is returned to the arena before the panic propagates.
func (ev *Evaluator) inttCopy(p *ring.Poly) (out *ring.Poly) {
	dst := ev.params.RingQ.GetPolyDirty(len(p.Coeffs))
	defer func() {
		if out == nil {
			ev.params.RingQ.PutPoly(dst)
		}
	}()
	ev.inttCopyInto(dst, p)
	return dst
}

// inttCopyInto writes the coefficient-domain image of the NTT-domain
// polynomial p into dst (same limb count, fully overwritten).
func (ev *Evaluator) inttCopyInto(dst, p *ring.Poly) {
	rq := ev.params.RingQ
	if !p.IsNTT {
		panic("ckks: inttCopy requires NTT-domain input")
	}
	limbs := len(p.Coeffs)
	if ev.pool.Workers() <= 1 {
		for i := 0; i < limbs; i++ {
			copy(dst.Coeffs[i], p.Coeffs[i])
			rq.InverseLimb(i, dst.Coeffs[i])
		}
	} else {
		ev.pool.ForEach(limbs, func(i int) {
			copy(dst.Coeffs[i], p.Coeffs[i])
			rq.InverseLimb(i, dst.Coeffs[i])
		})
	}
	dst.IsNTT = false
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

// Rotate rotates the slot vector by `steps` positions (Rotation =
// automorphism + keyswitch). Requires the corresponding rotation key.
func (ev *Evaluator) Rotate(ct *Ciphertext, steps int) *Ciphertext {
	return ev.RotateInto(NewCiphertext(ev.params, ct.Level), ct, steps)
}

// Conjugate conjugates every slot.
func (ev *Evaluator) Conjugate(ct *Ciphertext) *Ciphertext {
	return ev.ConjugateInto(NewCiphertext(ev.params, ct.Level), ct)
}

// KeySwitch re-encrypts ct from the key underlying swk's target to s —
// exposed for tests and for the trace generator.
func (ev *Evaluator) KeySwitch(ct *Ciphertext, swk *SwitchingKey) *Ciphertext {
	return ev.KeySwitchInto(NewCiphertext(ev.params, ct.Level), ct, swk)
}

// ksDigits is the operand every keyswitch inner product shares: the digit
// decomposition of one polynomial over the extended basis Q_l ∪ P, with the
// three things done to it — RNSconv/ModUp of a coefficient range, forward
// transform of a limb, and the inner product of a limb against a switching
// key. The plain keyswitch, the hoisted replay and both keyswitch sites of
// the double-hoisted linear-transform engine run these same methods; they
// differ only in where the digits come from and where the sums go.
type ksDigits struct {
	params *Parameters
	level  int
	qLimbs int
	ext1   int // extended limb count qLimbs + alpha
	strict bool

	digits [][][]uint64 // [digit][extended limb][coeff]

	// rows is slice-header scratch for the inner product: 3·len(digits)
	// headers per extended limb (the limb's digit rows and both key rows),
	// so concurrent limb tasks never share an entry. Capacity is kept across
	// checkouts of the owning state record.
	rows [][]uint64
}

// bind sizes the record for a keyswitch at the given level.
func (k *ksDigits) bind(params *Parameters, level int) {
	k.params = params
	k.level = level
	k.qLimbs = level + 1
	k.ext1 = k.qLimbs + params.Alpha()
	k.strict = params.RingQ.StrictKernels()
	need := 3 * params.Digits(level) * k.ext1
	if cap(k.rows) < need {
		k.rows = make([][]uint64, need)
	}
	k.rows = k.rows[:need]
}

// decomposeRange performs the RNSconv/ModUp of every digit on the
// coefficient range [lo, hi) — every coefficient's basis extension is
// self-contained. src is that range of the input (coefficient domain,
// qLimbs limbs), already cut out with rangeView.
func (k *ksDigits) decomposeRange(src [][]uint64, lo, hi int) {
	for d, ext := range k.digits {
		k.params.decomposer.DecomposeAndExtend(k.level, d, src, rangeView(ext, lo, hi))
	}
}

// extRing resolves extended-limb index i to its ring and the limb's index
// there: Q limbs first, then P limbs.
func (k *ksDigits) extRing(i int) (*ring.Ring, int) {
	if i < k.qLimbs {
		return k.params.RingQ, i
	}
	return k.params.RingP, i - k.qLimbs
}

// modulus resolves extended-limb index i to its modulus.
func (k *ksDigits) modulus(i int) numeric.Modulus {
	r, li := k.extRing(i)
	return r.Moduli[li]
}

// forwardLimb transforms extended limb i of every digit to the NTT domain.
func (k *ksDigits) forwardLimb(i int) {
	r, li := k.extRing(i)
	for _, ext := range k.digits {
		r.ForwardLimb(li, ext[i])
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
// deeper digit chains fold in between. Under StrictKernels the
// reduce-every-term reference chain (macLimb) runs instead; both leave the
// canonical residue of the same sum, bit for bit.
func (k *ksDigits) innerProduct(i int, key *SwitchingKey, perm []int, out0, out1 []uint64, add bool) {
	nd := len(k.digits)
	mod := k.modulus(i)
	rows := k.rows[3*nd*i : 3*nd*(i+1)]
	x, kb, ka := rows[:nd], rows[nd:2*nd], rows[2*nd:]
	for d, ext := range k.digits {
		x[d] = ext[i]
		if i < k.qLimbs {
			kb[d], ka[d] = key.B[d].Q.Coeffs[i], key.A[d].Q.Coeffs[i]
		} else {
			kb[d], ka[d] = key.B[d].P.Coeffs[i-k.qLimbs], key.A[d].P.Coeffs[i-k.qLimbs]
		}
	}
	if !k.strict {
		mod.VecInnerProductPair(out0, out1, x, kb, ka, perm, add)
		return
	}
	if !add {
		clear(out0)
		clear(out1)
	}
	for d := range x {
		macLimb(out0, x[d], kb[d], perm, mod)
		macLimb(out1, x[d], ka[d], perm, mod)
	}
}

// ksState bundles the keyswitch pipeline's per-call state so each stage can
// run either as a plain serial loop (no closure, no allocation) or as a
// method value fanned out across the worker pool. Records are recycled
// through the Parameters free list; every field is (re)assigned per call.
type ksState struct {
	ksDigits
	ev    *Evaluator
	alpha int
	n     int

	// cx is the coefficient-domain input the direct path decomposes. A
	// hoisted replay leaves it nil: its digits are the shared NTT-domain
	// decomposition, borrowed from a hoistedDecomposition (whose owner
	// releases them), and perm is the rotation's NTT-domain Galois
	// permutation.
	cx       *ring.Poly
	borrowed bool
	perm     []int
	key      *SwitchingKey

	acc0Q, acc1Q *ring.Poly
	acc0P, acc1P *ring.Poly

	p0, p1 *ring.Poly // destinations (qLimbs limbs each)
}

// newKsState checks a state record out and binds it to one keyswitch at the
// given level, accumulators drawn dirty from the arena — the inner-product
// stage overwrites every row. Release with ksRelease.
func (ev *Evaluator) newKsState(level int, key *SwitchingKey, p0, p1 *ring.Poly) *ksState {
	params := ev.params
	s := params.getKsState()
	s.bind(params, level)
	s.ev = ev
	s.alpha = params.Alpha()
	s.n = params.N
	s.key = key
	s.p0, s.p1 = p0, p1
	s.acc0Q = params.RingQ.GetPolyDirty(s.qLimbs)
	s.acc1Q = params.RingQ.GetPolyDirty(s.qLimbs)
	s.acc0P = params.RingP.GetPolyDirty(s.alpha)
	s.acc1P = params.RingP.GetPolyDirty(s.alpha)
	return s
}

// borrow points the pipeline at a shared NTT-domain decomposition whose owner
// releases it.
func (s *ksState) borrow(digits [][][]uint64) {
	s.borrowed = true
	s.digits = append(s.digits, digits...)
}

// decomposeChunk is decomposeRange as a coefficient-chunk stage.
func (s *ksState) decomposeChunk(lo, hi int) {
	s.decomposeRange(rangeView(s.cx.Coeffs, lo, hi), lo, hi)
}

// limbStage runs everything extended limb i needs between the basis
// extension and the ModDown in one task, so the limb's digit rows are
// transformed, multiplied and dropped while they are cache-resident: the
// forward NTT of each digit row (direct path only), the inner product
// against the key, and the inverse NTT of both sums.
func (s *ksState) limbStage(i int) {
	if s.cx != nil {
		s.forwardLimb(i)
	}
	r, li := s.extRing(i)
	out0, out1 := s.acc0Q.Coeffs, s.acc1Q.Coeffs
	if i >= s.qLimbs {
		out0, out1 = s.acc0P.Coeffs, s.acc1P.Coeffs
	}
	s.innerProduct(i, s.key, s.perm, out0[li], out1[li], false)
	r.InverseLimb(li, out0[li])
	r.InverseLimb(li, out1[li])
}

// modDownChunk divides the accumulated (Q, P) pair by P on coefficient
// range [lo, hi), writing the Q-basis results into p0/p1.
func (s *ksState) modDownChunk(lo, hi int) {
	md := s.ev.params.modDown[s.level]
	md.ModDown(rangeView(s.p0.Coeffs, lo, hi), rangeView(s.acc0Q.Coeffs, lo, hi), rangeView(s.acc0P.Coeffs, lo, hi))
	md.ModDown(rangeView(s.p1.Coeffs, lo, hi), rangeView(s.acc1Q.Coeffs, lo, hi), rangeView(s.acc1P.Coeffs, lo, hi))
}

// nttOutStage returns output limb t (p0 rows first, then p1) to the NTT
// domain.
func (s *ksState) nttOutStage(t int) {
	rq := s.ev.params.RingQ
	if t < s.qLimbs {
		rq.ForwardLimb(t, s.p0.Coeffs[t])
	} else {
		rq.ForwardLimb(t-s.qLimbs, s.p1.Coeffs[t-s.qLimbs])
	}
}

// keySwitchCoreInto is the paper's Keyswitch pipeline: decompose cx (coeff
// domain, level limbs over Q) into digits, RNSconv/ModUp each digit to
// Q_l ∪ P, inner-product with the key digits in the NTT domain, then
// ModDown by P. Writes (p0, p1) — NTT domain, qLimbs limbs, fully
// overwritten — into the caller-provided destinations.
//
// Loop order is limb-major, the order that keeps the working set on chip:
// all digits are extended first (chunked across coefficients), then each
// extended limb is one task (limbStage) that transforms its digit rows,
// sums Σ_d digit_d·key_d for both key rows in registers and inverse
// transforms the two results — where a digit-major order streams every
// partial sum through memory once per digit. ModDown chunks across
// coefficients again. Every sum is the canonical residue of an exact
// integer, so the result is bit-identical for every worker count and
// kernel tier. At workers=1 every stage runs as a plain loop over the
// pooled ksState's methods: no closures, no allocations — all scratch
// (accumulators, extended digits, the state record itself) is recycled
// through the arena and the Parameters free lists.
func (ev *Evaluator) keySwitchCoreInto(p0, p1 *ring.Poly, level int, cx *ring.Poly, key *SwitchingKey) {
	s := ev.newKsState(level, key, p0, p1)
	// Leak-proof discipline: every piece of scratch attached to s is
	// released by this deferred call whether the pipeline completes (fields
	// already nilled by the eager Puts in ksRun) or panics mid-stage.
	defer ev.ksRelease(s)
	s.cx = cx
	s.digits = s.params.getDigits(s.digits, level)
	if ev.pool.Workers() <= 1 {
		s.decomposeChunk(0, s.n)
	} else {
		ev.pool.ForEachChunk(s.n, s.decomposeChunk)
	}
	ev.ksRun(s)
}

// ksRun runs the pipeline from the extended digits on, shared by the direct
// and hoisted paths: the limb-major inner product between its transforms,
// ModDown by P into (p0, p1), and the return to the NTT domain.
func (ev *Evaluator) ksRun(s *ksState) {
	params := ev.params
	pool := ev.pool
	rq, rp := params.RingQ, params.RingP
	serial := pool.Workers() <= 1

	if serial {
		for i := 0; i < s.ext1; i++ {
			s.limbStage(i)
		}
		s.modDownChunk(0, s.n)
	} else {
		pool.ForEach(s.ext1, s.limbStage)
		pool.ForEachChunk(s.n, s.modDownChunk)
	}
	// Eager accumulator release (shrinks peak arena use before the output
	// NTTs); fields are nilled so the caller's deferred ksRelease — which
	// handles the remaining scratch and the state record — never double-Puts.
	rq.PutPoly(s.acc0Q)
	rq.PutPoly(s.acc1Q)
	rp.PutPoly(s.acc0P)
	rp.PutPoly(s.acc1P)
	s.acc0Q, s.acc1Q, s.acc0P, s.acc1P = nil, nil, nil, nil

	if serial {
		for t := 0; t < 2*s.qLimbs; t++ {
			s.nttOutStage(t)
		}
	} else {
		pool.ForEach(2*s.qLimbs, s.nttOutStage)
	}
	s.p0.IsNTT, s.p1.IsNTT = true, true
}

// ksRelease returns every piece of scratch still attached to s to its arena
// or free list and recycles the state record. Safe to run after a normal
// ksRun (completed stages nil their fields) and after a panic anywhere in
// the pipeline. Digits are released only when this pipeline drew them: a
// hoisted replay borrows them from the shared decomposition.
func (ev *Evaluator) ksRelease(s *ksState) {
	params := ev.params
	rq, rp := params.RingQ, params.RingP
	if s.acc0Q != nil {
		rq.PutPoly(s.acc0Q)
	}
	if s.acc1Q != nil {
		rq.PutPoly(s.acc1Q)
	}
	if s.acc0P != nil {
		rp.PutPoly(s.acc0P)
	}
	if s.acc1P != nil {
		rp.PutPoly(s.acc1P)
	}
	if !s.borrowed {
		s.digits = params.putDigits(s.digits)
	}
	params.putKsState(s)
}

// wideAcc is a bank of 128-bit accumulator columns: rows of N (hi, lo)
// pairs backing the fused plaintext sums of the linear-transform paths,
// whose terms are too many to carry in registers. (Keyswitch sums never
// touch one: see ksDigits.innerProduct.) Rows are touched by at most one
// worker at a time (the parallel loops partition by row), so no locking is
// needed. Banks are recycled through the Parameters free list
// (getWide/putWide).
type wideAcc struct {
	hi [][]uint64
	lo [][]uint64
}

// newWideAcc allocates rows×n zeroed accumulator columns in two slabs.
func newWideAcc(rows, n int) *wideAcc {
	hiSlab := make([]uint64, rows*n)
	loSlab := make([]uint64, rows*n)
	w := &wideAcc{hi: make([][]uint64, rows), lo: make([][]uint64, rows)}
	for r := 0; r < rows; r++ {
		w.hi[r] = hiSlab[r*n : (r+1)*n]
		w.lo[r] = loSlab[r*n : (r+1)*n]
	}
	return w
}

// macPair accumulates a0[j]·b[j] onto row r0 and a1[j]·b[j] onto row r1 in
// one pass over the shared multiplicand b (see numeric.VecMACWidePair).
func (w *wideAcc) macPair(r0, r1 int, a0, a1, b []uint64) {
	numeric.VecMACWidePair(w.hi[r0], w.lo[r0], w.hi[r1], w.lo[r1], a0, a1, b)
}

// fold reduces row r to residues, restarting the lazy-product budget.
func (w *wideAcc) fold(mod numeric.Modulus, r int) {
	mod.VecFoldWide(w.hi[r], w.lo[r])
}

// reduce closes row r with the single deferred Barrett reduction per
// coefficient, writing residues into out.
func (w *wideAcc) reduce(mod numeric.Modulus, r int, out []uint64) {
	mod.VecReduceWide(out, w.hi[r], w.lo[r])
}

// macLimb computes acc[j] += a[perm[j]]·b[j] mod q over one limb (perm nil
// reads a in order) — the strict reference schedule: one full reduction and
// modular add per term.
func macLimb(acc, a, b []uint64, perm []int, mod numeric.Modulus) {
	if perm == nil {
		for j := range acc {
			acc[j] = mod.Add(acc[j], mod.Mul(a[j], b[j]))
		}
		return
	}
	for j, p := range perm {
		acc[j] = mod.Add(acc[j], mod.Mul(a[p], b[j]))
	}
}

// addVecGather accumulates a[perm[j]] into out[j] modulo mod — a modular
// add with an NTT-domain Galois permutation gathered in the same pass.
func addVecGather(mod numeric.Modulus, out, a []uint64, perm []int) {
	for j, p := range perm {
		out[j] = mod.Add(out[j], a[p])
	}
}

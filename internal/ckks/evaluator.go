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

// ksState bundles the keyswitch pipeline's per-call state so each stage can
// run either as a plain serial loop (no closure, no allocation) or as a
// method value fanned out across the worker pool. Records are recycled
// through the Parameters free list; every field is (re)assigned per call.
type ksState struct {
	ev     *Evaluator
	level  int
	qLimbs int
	alpha  int
	ext1   int // extLimbs = qLimbs + alpha
	n      int
	strict bool

	cx  *ring.Poly    // coefficient-domain input (non-hoisted path)
	key *SwitchingKey // digit key material
	d   int           // current digit

	acc0Q, acc1Q *ring.Poly
	acc0P, acc1P *ring.Poly
	wide         *wideAcc   // nil under strict kernels
	ext          [][]uint64 // current extended digit (NTT domain after mac)

	p0, p1 *ring.Poly // destinations (qLimbs limbs each)

	// Hoisted replay: when hoisted is true, ext already holds the
	// NTT-domain shared decomposition and the mac stage permutes it through
	// permQ/permP instead of decomposing and transforming.
	hoisted      bool
	permQ, permP []int

	// accumOnly marks an accumulate-only run: the pipeline stops after
	// reducing the digit MACs to NTT-domain residues over the extended
	// basis (reduceResidueStage) — no inverse NTT, no ModDown. The acc
	// polys are then caller-owned accumulator destinations, and neither
	// ksFinish nor ksRelease may touch them. The double-hoisted
	// linear-transform engine runs baby-step rotations in this mode.
	accumOnly bool
}

// foldStage folds accumulator columns to residues, restarting the lazy
// 128-bit product budget (rows i and extLimbs+i for extended limb i).
func (s *ksState) foldStage(i int) {
	mod := extModulus(s.ev.params.RingQ, s.ev.params.RingP, s.qLimbs, i)
	s.wide.fold(mod, i)
	s.wide.fold(mod, s.ext1+i)
}

// decomposeChunk performs the RNSconv/ModUp of the current digit on the
// coefficient range [lo, hi) — every coefficient's basis extension is
// self-contained.
func (s *ksState) decomposeChunk(lo, hi int) {
	s.ev.params.decomposer.DecomposeAndExtend(
		s.level, s.d, rangeView(s.cx.Coeffs, lo, hi), rangeView(s.ext, lo, hi))
}

// macStage processes extended limb i of the current digit: forward NTT
// (or, hoisted, the NTT-domain Galois permutation through an arena staging
// vector) followed by the multiply-accumulate against the digit keys —
// fused lazy 128-bit columns in production, reduce-then-add under strict.
func (s *ksState) macStage(i int) {
	rq, rp := s.ev.params.RingQ, s.ev.params.RingP
	bd, ad := s.key.B[s.d], s.key.A[s.d]
	src := s.ext[i]
	var permBuf []uint64
	if s.hoisted {
		permBuf = rq.GetVec()
		if i < s.qLimbs {
			ring.ApplyPermutationNTT(permBuf, src, s.permQ)
		} else {
			ring.ApplyPermutationNTT(permBuf, src, s.permP)
		}
		src = permBuf
	}
	if i < s.qLimbs {
		if !s.hoisted {
			rq.ForwardLimb(i, src)
		}
		if s.strict {
			mod := rq.Moduli[i]
			macLimb(s.acc0Q.Coeffs[i], src, bd.Q.Coeffs[i], mod)
			macLimb(s.acc1Q.Coeffs[i], src, ad.Q.Coeffs[i], mod)
		} else {
			s.wide.macPair(i, s.ext1+i, bd.Q.Coeffs[i], ad.Q.Coeffs[i], src)
		}
	} else {
		j := i - s.qLimbs
		if !s.hoisted {
			rp.ForwardLimb(j, src)
		}
		if s.strict {
			mod := rp.Moduli[j]
			macLimb(s.acc0P.Coeffs[j], src, bd.P.Coeffs[j], mod)
			macLimb(s.acc1P.Coeffs[j], src, ad.P.Coeffs[j], mod)
		} else {
			s.wide.macPair(i, s.ext1+i, bd.P.Coeffs[j], ad.P.Coeffs[j], src)
		}
	}
	if permBuf != nil {
		rq.PutVec(permBuf)
	}
}

// reduceResidueStage closes the accumulator columns of extended limb i to
// NTT-domain residues in the acc polys without leaving the extended basis —
// the accumulate-only pipeline tail. Under strict kernels the mac stage
// already maintained exact residues in the acc polys, so there is nothing
// to reduce; both paths leave identical values (the lazy columns hold the
// exact same modular sum, closed by one deferred Barrett reduction).
func (s *ksState) reduceResidueStage(i int) {
	if s.wide == nil {
		return
	}
	mod := extModulus(s.ev.params.RingQ, s.ev.params.RingP, s.qLimbs, i)
	if i < s.qLimbs {
		s.wide.reduce(mod, i, s.acc0Q.Coeffs[i])
		s.wide.reduce(mod, s.ext1+i, s.acc1Q.Coeffs[i])
	} else {
		j := i - s.qLimbs
		s.wide.reduce(mod, i, s.acc0P.Coeffs[j])
		s.wide.reduce(mod, s.ext1+i, s.acc1P.Coeffs[j])
	}
}

// inttReduceStage closes accumulator row t (2·qLimbs Q rows then 2·alpha P
// rows): the lazy path's single deferred Barrett reduction per coefficient,
// fused with the inverse transform of the same limb.
func (s *ksState) inttReduceStage(t int) {
	rq, rp := s.ev.params.RingQ, s.ev.params.RingP
	if t < 2*s.qLimbs {
		c, i := t/s.qLimbs, t%s.qLimbs
		acc := s.acc0Q
		if c == 1 {
			acc = s.acc1Q
		}
		if s.wide != nil {
			s.wide.reduce(rq.Moduli[i], c*s.ext1+i, acc.Coeffs[i])
		}
		rq.InverseLimb(i, acc.Coeffs[i])
	} else {
		t -= 2 * s.qLimbs
		c, j := t/s.alpha, t%s.alpha
		acc := s.acc0P
		if c == 1 {
			acc = s.acc1P
		}
		if s.wide != nil {
			s.wide.reduce(rp.Moduli[j], c*s.ext1+s.qLimbs+j, acc.Coeffs[j])
		}
		rp.InverseLimb(j, acc.Coeffs[j])
	}
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
// The digit inner product is the fused lazy accumulation: each extended
// limb keeps a 128-bit (hi, lo) column pair per coefficient, every digit's
// product is a raw multiply-accumulate (VecMACWide), and one Barrett
// reduction per coefficient (VecReduceWide) closes the sum — instead of a
// full reduction plus modular add per digit. ReduceWide is valid for any
// 128-bit value and q < 2^61 bounds each product below 2^122, so up to
// numeric.MaxLazyProducts digits accumulate safely; deeper chains fold the
// accumulator to a residue and continue. Under StrictKernels the per-digit
// reduce-then-add reference path (macLimb) runs instead; both are
// bit-identical.
//
// Parallel structure: the RNSconv/ModUp of a digit chunks across
// coefficients; the forward NTT and multiply-accumulate of its extended
// limbs fan out limb-wise (each limb is one independent lane group);
// ModDown chunks across coefficients again. Digits run sequentially so the
// accumulator update order — hence every bit of the result — matches the
// serial schedule. At workers=1 every stage runs as a plain loop over the
// pooled ksState's methods: no closures, no allocations — all scratch
// (accumulators, wide columns, extended digits, the state record itself)
// is recycled through the arena and the Parameters free lists.
func (ev *Evaluator) keySwitchCoreInto(p0, p1 *ring.Poly, level int, cx *ring.Poly, key *SwitchingKey) {
	params := ev.params
	pool := ev.pool
	serial := pool.Workers() <= 1
	rq, rp := params.RingQ, params.RingP
	digits := params.Digits(level)

	s := params.getKsState()
	// Leak-proof discipline: every piece of scratch attached to s is
	// released by this deferred call whether the pipeline completes (fields
	// already nilled by the eager Puts in ksFinish) or panics mid-digit.
	defer ev.ksRelease(s)
	s.ev = ev
	s.level = level
	s.qLimbs = level + 1
	s.alpha = params.Alpha()
	s.ext1 = s.qLimbs + s.alpha
	s.n = params.N
	s.strict = rq.StrictKernels()
	s.cx = cx
	s.key = key
	s.p0, s.p1 = p0, p1

	// Accumulators over Q_l and P, NTT domain, drawn zeroed from the arena.
	s.acc0Q = rq.GetPoly(s.qLimbs)
	s.acc1Q = rq.GetPoly(s.qLimbs)
	s.acc0P = rp.GetPoly(s.alpha)
	s.acc1P = rp.GetPoly(s.alpha)
	s.acc0Q.IsNTT, s.acc1Q.IsNTT, s.acc0P.IsNTT, s.acc1P.IsNTT = true, true, true, true

	// Lazy path: 128-bit accumulator columns, rows [0, extLimbs) for the
	// b-key sum and [extLimbs, 2·extLimbs) for the a-key sum.
	if !s.strict {
		s.wide = params.getWide(2 * s.ext1)
	}
	s.ext = params.getExt(s.ext1)

	for d := 0; d < digits; d++ {
		s.d = d
		if s.wide != nil && d > 0 && d%(numeric.MaxLazyProducts-1) == 0 {
			// Deep digit chains: fold each column to its residue so the
			// next MaxLazyProducts−1 products cannot overflow 128 bits.
			if serial {
				for i := 0; i < s.ext1; i++ {
					s.foldStage(i)
				}
			} else {
				pool.ForEach(s.ext1, s.foldStage)
			}
		}
		if serial {
			s.decomposeChunk(0, s.n)
			for i := 0; i < s.ext1; i++ {
				s.macStage(i)
			}
		} else {
			pool.ForEachChunk(s.n, s.decomposeChunk)
			pool.ForEach(s.ext1, s.macStage)
		}
	}

	ev.ksFinish(s, serial)
}

// ksFinish runs the tail of the keyswitch pipeline shared by the direct and
// hoisted paths: close the accumulators (deferred reduction + inverse NTT),
// ModDown by P into (p0, p1), return them to the NTT domain, and release
// every piece of scratch.
func (ev *Evaluator) ksFinish(s *ksState, serial bool) {
	params := ev.params
	pool := ev.pool
	rq, rp := params.RingQ, params.RingP

	if serial {
		for t := 0; t < 2*s.qLimbs+2*s.alpha; t++ {
			s.inttReduceStage(t)
		}
	} else {
		pool.ForEach(2*s.qLimbs+2*s.alpha, s.inttReduceStage)
	}
	s.acc0Q.IsNTT, s.acc1Q.IsNTT, s.acc0P.IsNTT, s.acc1P.IsNTT = false, false, false, false

	if serial {
		s.modDownChunk(0, s.n)
	} else {
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
// ksFinish (completed stages nil their fields) and after a panic anywhere in
// the pipeline; hoisted replays never release s.ext here because the digits
// are borrowed from the shared hoistedDecomposition.
func (ev *Evaluator) ksRelease(s *ksState) {
	params := ev.params
	rq, rp := params.RingQ, params.RingP
	if s.accumOnly {
		// Accumulate-only runs borrow caller-owned accumulator polys; the
		// caller's own deferred sweep releases them (a Put here would
		// double-free on the panic path).
		s.acc0Q, s.acc1Q, s.acc0P, s.acc1P = nil, nil, nil, nil
	}
	if s.acc0Q != nil {
		rq.PutPoly(s.acc0Q)
		s.acc0Q = nil
	}
	if s.acc1Q != nil {
		rq.PutPoly(s.acc1Q)
		s.acc1Q = nil
	}
	if s.acc0P != nil {
		rp.PutPoly(s.acc0P)
		s.acc0P = nil
	}
	if s.acc1P != nil {
		rp.PutPoly(s.acc1P)
		s.acc1P = nil
	}
	if s.ext != nil && !s.hoisted {
		params.putExt(s.ext)
	}
	s.ext = nil
	if s.wide != nil {
		params.putWide(s.wide)
		s.wide = nil
	}
	params.putKsState(s)
}

// extModulus resolves extended-limb index i to its modulus: Q limbs first,
// then P limbs.
func extModulus(rq, rp *ring.Ring, qLimbs, i int) numeric.Modulus {
	if i < qLimbs {
		return rq.Moduli[i]
	}
	return rp.Moduli[i-qLimbs]
}

// wideAcc is a bank of 128-bit accumulator columns: rows of N (hi, lo)
// pairs backing the fused lazy inner products of the keyswitch and
// linear-transform pipelines. Rows are touched by at most one worker at a
// time (the parallel loops partition by row), so no locking is needed.
// Banks are recycled through the Parameters free list (getWide/putWide).
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

// mac accumulates a[j]·b[j] onto row r.
func (w *wideAcc) mac(r int, a, b []uint64) {
	numeric.VecMACWide(w.hi[r], w.lo[r], a, b)
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

// macLimb computes acc[j] += a[j]·b[j] mod q over one limb — the strict
// reference schedule (one full reduction and modular add per digit).
func macLimb(acc, a, b []uint64, mod numeric.Modulus) {
	for j := range acc {
		acc[j] = mod.Add(acc[j], mod.Mul(a[j], b[j]))
	}
}

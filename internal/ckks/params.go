// Package ckks implements the RNS-CKKS approximate homomorphic encryption
// scheme — the FHE substrate the Poseidon accelerator executes. It provides
// encoding via the canonical embedding, key generation, encryption, and an
// evaluator covering every basic operation the paper decomposes into
// operators: HAdd, PMult, CMult with relinearization, Rescale, Keyswitch
// (RNSconv/ModUp/ModDown), Rotation, conjugation, and packed bootstrapping.
package ckks

import (
	"fmt"
	"math"
	"sync"

	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/rns"
)

// Parameters fixes a CKKS instance: ring degree, modulus chain Q, special
// (keyswitching) modulus chain P, and the default encoding scale.
// Parameters are immutable after construction and safe to share.
type Parameters struct {
	LogN  int
	N     int
	Slots int // N/2 complex slots

	Q []uint64 // ciphertext modulus chain, level l uses Q[0..l]
	P []uint64 // special primes for hybrid keyswitching

	Scale float64 // default encoding scale Δ

	RingQ *ring.Ring
	RingP *ring.Ring

	// arena is the one scratch arena of the parameter set — the software
	// scratchpad every evaluator built on it shares. Every coefficient
	// buffer ckks checks out, over Q or P, is drawn from and returned to it;
	// its widest class is a full extended-digit matrix over Q ∪ P.
	arena *ring.Arena

	decomposer *rns.Decomposer
	rescaler   *rns.Rescaler
	modDown    []*rns.ModDownParams // per level, built eagerly

	// pool is the limb-parallel execution engine evaluators built from
	// these parameters inherit (overridable per evaluator via WithWorkers).
	pool *ring.Pool

	// pModQ[i] = Π_j p_j mod q_i (with Shoup constants): the scalar that
	// lifts a Q-basis polynomial x to the value P·x the extended-basis
	// accumulators of hoisted keyswitching hold before ModDown. The
	// double-hoisted linear-transform engine uses it to fold the identity
	// rotation and the baby-step c0 corrections into the lazy QP basis.
	pModQ      []uint64
	pModQShoup []uint64

	// imagUnit[i] = ψ_i^{N/2}, the square root of −1 modulo q_i that
	// X^{N/2} — the slot-wise factor i — evaluates to at the NTT points.
	imagUnit []uint64

	// opFree is the deterministic free list of exec's per-call records, one
	// record per op (opCall). Like the ring arena it is a mutex-guarded typed
	// stack, not a sync.Pool: never cleared by the GC, and pushing onto it
	// does not box, so a steady-state evaluator loop checks the same records
	// in and out with zero heap allocations. Every coefficient buffer a
	// record points at comes from arena. scratchMu also guards the record
	// lists of compiled polynomial plans (polyplan.go).
	scratchMu sync.Mutex
	opFree    []*opCall
}

// getDigits appends one extended-digit matrix per keyswitch digit of the
// given level to ds — the scratch a full decomposition over Q_l ∪ P needs.
// Each matrix is a full-width (|Q|+|P|)-limb arena poly, one size class for
// every level; the pipeline reads its first level+1+Alpha rows.
func (p *Parameters) getDigits(ds []*ring.Poly, level int) []*ring.Poly {
	for d := p.Digits(level); d > 0; d-- {
		ds = append(ds, p.arena.GetDirty(len(p.Q)+len(p.P)))
	}
	return ds
}

// getPair draws a keyswitch accumulator: one arena poly per ciphertext
// component, each exactly ext1 rows over Q_l ∪ P in the digit layout —
// zeroed for one built up by modular adds, dirty for one whose every row the
// filling stage overwrites. Unlike the digits it is drawn at its exact
// width: a full-width pair would add to every keyswitch's footprint.
func (p *Parameters) getPair(ext1 int, zeroed bool) [2]*ring.Poly {
	if zeroed {
		return [2]*ring.Poly{p.arena.Get(ext1), p.arena.Get(ext1)}
	}
	return [2]*ring.Poly{p.arena.GetDirty(ext1), p.arena.GetDirty(ext1)}
}

// putPolys returns digit matrices or an accumulator pair to the arena and
// forgets them, handing back ps emptied with its capacity. Nil entries are
// skipped, so it doubles as the panic-path sweep of a half-drawn or
// already-returned set.
func (p *Parameters) putPolys(ps []*ring.Poly) []*ring.Poly {
	for k, q := range ps {
		p.arena.Put(q)
		ps[k] = nil
	}
	return ps[:0]
}

// extRing resolves row i of an extended-basis poly over Q_l ∪ P (qLimbs Q
// rows, then the P rows) to its ring and the limb's index there.
func (p *Parameters) extRing(qLimbs, i int) (*ring.Ring, int) {
	if i < qLimbs {
		return p.RingQ, i
	}
	return p.RingP, i - qLimbs
}

// popFree pops a recycled record off one of the scratchMu-guarded free lists,
// or hands out a fresh zero one. A record comes back reset by its owner but
// keeping its slice capacities, so the per-call tables never reallocate in
// steady state.
func popFree[T any](p *Parameters, list *[]*T) *T {
	p.scratchMu.Lock()
	defer p.scratchMu.Unlock()
	n := len(*list)
	if n == 0 {
		return new(T)
	}
	s := (*list)[n-1]
	(*list)[n-1] = nil
	*list = (*list)[:n-1]
	return s
}

// pushFree recycles a record (already reset by its release path).
func pushFree[T any](p *Parameters, list *[]*T, s *T) {
	p.scratchMu.Lock()
	*list = append(*list, s)
	p.scratchMu.Unlock()
}

// releasePoly returns *q to the arena and forgets it; a nil *q is a no-op.
// Every release path that must also serve as a panic-path sweep is built
// from it.
func (p *Parameters) releasePoly(q **ring.Poly) {
	p.arena.Put(*q)
	*q = nil
}

// Arena is the parameter set's one scratch arena (poison mode, direct
// checkout for callers that manage polynomial lifetimes themselves).
func (p *Parameters) Arena() *ring.Arena { return p.arena }

// ArenaStats reports the counters of the one scratch arena — every
// coefficient buffer the evaluator draws, keyswitch digits included. It is
// the observable for the memory model: in a steady-state evaluator loop
// BytesAllocated stops growing and Misses stays flat while Gets climbs, and
// PeakBytes is the whole working set.
func (p *Parameters) ArenaStats() ring.ArenaStats { return p.arena.Stats() }

// ParametersLiteral is the user-facing specification: prime bit sizes
// rather than concrete primes.
type ParametersLiteral struct {
	LogN     int
	LogQ     []int // bit size of each chain prime, q0 first
	LogP     []int // bit sizes of the special primes
	LogScale int   // Δ = 2^LogScale

	// Workers bounds the limb-parallel worker pool evaluators run on:
	// 0 shares the package-level pool sized by runtime.GOMAXPROCS,
	// 1 forces fully serial execution, n > 1 creates a dedicated pool of
	// that width. Results are bit-identical for every setting.
	Workers int
}

// NewParameters instantiates the literal: generates distinct NTT-friendly
// primes of the requested sizes and builds the rings and RNS tooling.
func NewParameters(lit ParametersLiteral) (*Parameters, error) {
	if lit.LogN < 3 || lit.LogN > 17 {
		return nil, fmt.Errorf("ckks: LogN=%d out of range [3,17]", lit.LogN)
	}
	if len(lit.LogQ) == 0 {
		return nil, fmt.Errorf("ckks: empty modulus chain")
	}
	if len(lit.LogP) == 0 {
		return nil, fmt.Errorf("ckks: hybrid keyswitching requires ≥1 special prime")
	}

	// Generate enough distinct primes per bit size in one pass so repeated
	// sizes never collide.
	need := map[int]int{}
	for _, b := range lit.LogQ {
		need[b]++
	}
	for _, b := range lit.LogP {
		need[b]++
	}
	pool := map[int][]uint64{}
	for b, cnt := range need {
		ps, err := numeric.GenerateNTTPrimes(b, lit.LogN, cnt)
		if err != nil {
			return nil, fmt.Errorf("ckks: %v", err)
		}
		pool[b] = ps
	}
	take := func(b int) uint64 {
		ps := pool[b]
		q := ps[0]
		pool[b] = ps[1:]
		return q
	}

	p := &Parameters{
		LogN:  lit.LogN,
		N:     1 << uint(lit.LogN),
		Slots: 1 << uint(lit.LogN-1),
		Scale: math.Exp2(float64(lit.LogScale)),
	}
	for _, b := range lit.LogQ {
		p.Q = append(p.Q, take(b))
	}
	for _, b := range lit.LogP {
		p.P = append(p.P, take(b))
	}

	var err error
	if p.RingQ, err = ring.NewRing(p.N, p.Q); err != nil {
		return nil, err
	}
	if p.RingP, err = ring.NewRing(p.N, p.P); err != nil {
		return nil, err
	}
	p.arena = ring.NewArena(p.N, len(p.Q)+len(p.P))

	p.pModQ = make([]uint64, len(p.Q))
	p.pModQShoup = make([]uint64, len(p.Q))
	p.imagUnit = make([]uint64, len(p.Q))
	for i, qi := range p.RingQ.Moduli {
		p.imagUnit[i] = qi.Pow(p.RingQ.Tables[i].Psi, uint64(p.N/2))
		prod := uint64(1)
		for _, pj := range p.RingP.Moduli {
			prod = qi.Mul(prod, qi.Reduce(pj.Q))
		}
		p.pModQ[i] = prod
		p.pModQShoup[i] = qi.ShoupConstant(prod)
	}

	alpha := len(p.P)
	p.decomposer = rns.NewDecomposer(p.RingQ.Moduli, p.RingP.Moduli, alpha)
	p.rescaler = rns.NewRescaler(p.RingQ.Moduli)
	p.modDown = make([]*rns.ModDownParams, len(p.Q))
	for l := 0; l < len(p.Q); l++ {
		p.modDown[l] = rns.NewModDownParams(p.RingQ.Moduli[:l+1], p.RingP.Moduli)
	}
	if lit.Workers == 0 {
		p.pool = ring.DefaultPool()
	} else {
		p.pool = ring.NewPool(lit.Workers)
	}
	return p, nil
}

// Workers reports the limb-parallel worker bound evaluators inherit from
// these parameters.
func (p *Parameters) Workers() int { return p.pool.Workers() }

// MaxLevel is the highest ciphertext level (len(Q)−1).
func (p *Parameters) MaxLevel() int { return len(p.Q) - 1 }

// Alpha is the number of special primes (the digit width of hybrid
// keyswitching).
func (p *Parameters) Alpha() int { return len(p.P) }

// Digits returns the digit count at the given level.
func (p *Parameters) Digits(level int) int { return p.decomposer.Digits(level) }

// TestParameters returns a small, fast instance for unit tests:
// N=2^12, 6-level chain of 45-bit primes under a 40-bit scale.
func TestParameters() (*Parameters, error) {
	return NewParameters(ParametersLiteral{
		LogN:     12,
		LogQ:     []int{55, 45, 45, 45, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
}

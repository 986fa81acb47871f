package ring

import (
	"fmt"
	"sync"
)

// poisonWord is the sentinel written over every recycled coefficient when
// poison mode is on. Any code that keeps using a polynomial after Put will
// either read this pattern (loudly wrong values downstream) or overwrite it,
// which the next Get detects and reports as a use-after-put.
const poisonWord = 0xDEADBEEFDEADBEEF

// ArenaStats is a snapshot of the arena's accounting counters. Byte figures
// count coefficient backing storage only (8 bytes per coefficient word).
type ArenaStats struct {
	Gets   uint64 // checkouts
	Puts   uint64 // returns
	Misses uint64 // checkouts that had to allocate because the free list was empty
	// BytesAllocated is the total backing storage the arena has ever
	// allocated. In a steady-state loop it stops growing: every Get is
	// served from a free list.
	BytesAllocated uint64
	// BytesInUse is the storage currently checked out (Gets minus Puts, in
	// bytes). PeakBytes is its high-water mark — the software analogue of
	// the accelerator's scratchpad occupancy.
	BytesInUse uint64
	PeakBytes  uint64
}

// Arena is a size-classed free list of RNS polynomials: one stack per limb
// count, and nothing else — a single N-word staging row is a one-limb poly.
// It is the software stand-in for Poseidon's fixed on-chip scratchpad, which
// holds everything in limb-sized units: every evaluator temporary is checked
// out with Get/GetDirty and returned with Put, so a steady-state evaluation
// loop recirculates the same backing arrays instead of allocating.
//
// Unlike sync.Pool, the free lists are deterministic: they are never cleared
// by the garbage collector, and pushing a slice onto a typed stack does not
// box it in an interface. Both properties matter for the zero-allocation
// gates — after warm-up, Get and Put perform no heap allocation.
//
// Safe for concurrent use. Polynomials handed out are exclusively owned by
// the caller until Put; the arena never retains a reference to a checked-out
// poly, so the evaluators sharing one arena (every evaluator built on one
// parameter set, which owns it) can never observe each other's scratch.
type Arena struct {
	n  int
	mu sync.Mutex
	// classes[c] holds free polys with exactly c+1 limbs. A poly is filed
	// by the limbs it was checked out with (its capacity), whatever it was
	// resliced to since.
	classes [][]*Poly
	poison  bool
	stats   ArenaStats
}

// NewArena creates an arena for degree-n polynomials of 1..maxLimbs limbs.
func NewArena(n, maxLimbs int) *Arena {
	if n < 1 || maxLimbs < 1 {
		panic(fmt.Sprintf("ring: invalid arena geometry n=%d maxLimbs=%d", n, maxLimbs))
	}
	return &Arena{n: n, classes: make([][]*Poly, maxLimbs)}
}

// SetPoison toggles poison mode: returned polynomials are overwritten with a
// sentinel pattern, verified intact on the next checkout, and double-Puts
// panic. Costs a full sweep of each recycled buffer — debug and fuzz use
// only. Safe for concurrent use. Enabling poison retro-fills everything
// already sitting on the free lists, so the mode can be switched on at any
// point in an arena's life without false write-after-Put reports against
// slabs recycled before the switch.
func (a *Arena) SetPoison(on bool) {
	a.mu.Lock()
	if on && !a.poison {
		for _, cl := range a.classes {
			for _, p := range cl {
				fillPoison(p)
			}
		}
	}
	a.poison = on
	a.mu.Unlock()
}

// Stats returns a snapshot of the arena's counters.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// GetDirty checks out a `limbs`-limb polynomial with unspecified contents
// (poison-mode buffers come back filled with the sentinel). Use when every
// coefficient is about to be overwritten; pair with Put.
func (a *Arena) GetDirty(limbs int) *Poly {
	if limbs < 1 || limbs > len(a.classes) {
		panic(fmt.Sprintf("ring: limbs=%d out of range [1,%d]", limbs, len(a.classes)))
	}
	bytes := uint64(limbs) * uint64(a.n) * 8

	a.mu.Lock()
	var p *Poly
	if cl := a.classes[limbs-1]; len(cl) > 0 {
		p = cl[len(cl)-1]
		cl[len(cl)-1] = nil
		a.classes[limbs-1] = cl[:len(cl)-1]
	}
	a.stats.Gets++
	if p == nil {
		a.stats.Misses++
		a.stats.BytesAllocated += bytes
	}
	a.stats.BytesInUse += bytes
	if a.stats.BytesInUse > a.stats.PeakBytes {
		a.stats.PeakBytes = a.stats.BytesInUse
	}
	poison := a.poison
	a.mu.Unlock()

	if p == nil {
		return newPoly(a.n, limbs)
	}
	if poison {
		a.verifyPoison(p)
	}
	p.IsNTT = false
	return p
}

// Get is GetDirty plus a zero fill.
func (a *Arena) Get(limbs int) *Poly {
	p := a.GetDirty(limbs)
	for i := range p.Coeffs {
		clear(p.Coeffs[i])
	}
	return p
}

// Put returns a polynomial to its size class. It takes back only what this
// arena handed out: a poly that was never checked out (NewPoly's, say) would
// subtract bytes that were never added and wrap BytesInUse, the figure
// MaxArenaBytes admission reads. The poly must own its backing storage —
// never a prefix view of a live polynomial — and must not be referenced
// afterwards. A poly resliced to fewer limbs since (by a rescale or a
// reshape) is restored to its full capacity first, so it is filed,
// accounted and poisoned as the size it was checked out at.
func (a *Arena) Put(p *Poly) {
	if p == nil || cap(p.Coeffs) == 0 {
		return
	}
	p.Coeffs = p.Coeffs[:cap(p.Coeffs)]
	limbs := len(p.Coeffs)
	if limbs > len(a.classes) || len(p.Coeffs[0]) != a.n {
		panic(fmt.Sprintf("ring: foreign poly returned to arena (limbs=%d, row=%d, want n=%d)",
			limbs, len(p.Coeffs[0]), a.n))
	}
	bytes := uint64(limbs) * uint64(a.n) * 8

	a.mu.Lock()
	if a.poison {
		for _, q := range a.classes[limbs-1] {
			if q == p {
				a.mu.Unlock()
				panic("ring: double Put of arena poly")
			}
		}
		fillPoison(p)
	}
	a.classes[limbs-1] = append(a.classes[limbs-1], p)
	a.stats.Puts++
	a.stats.BytesInUse -= bytes
	a.mu.Unlock()
}

// fillPoison overwrites every coefficient of p with the sentinel.
func fillPoison(p *Poly) {
	for _, row := range p.Coeffs {
		for j := range row {
			row[j] = poisonWord
		}
	}
}

// verifyPoison panics if any recycled word was overwritten while the buffer
// sat on the free list — evidence that some caller kept writing through a
// reference after Put (use-after-put / aliasing bug).
func (a *Arena) verifyPoison(p *Poly) {
	for i, row := range p.Coeffs {
		for j, w := range row {
			if w != poisonWord {
				panic(fmt.Sprintf(
					"ring: arena poison broken at limb %d coeff %d (got %#x): write-after-Put detected",
					i, j, w))
			}
		}
	}
}

// newPoly allocates a fresh limbs×n polynomial in one backing slab.
func newPoly(n, limbs int) *Poly {
	backing := make([]uint64, limbs*n)
	p := &Poly{Coeffs: make([][]uint64, limbs)}
	for i := range p.Coeffs {
		p.Coeffs[i] = backing[i*n : (i+1)*n]
	}
	return p
}

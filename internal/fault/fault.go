// Package fault is the fault-injection and integrity substrate of the
// fault-tolerance layer: a deterministic, seedable injector that models the
// hardware fault classes the paper's platform (an Alveo U280 with HBM)
// exposes, plus the residue-checksum primitive the runtime guards verify at
// operator boundaries.
//
// The injector is hooked behind zero-cost-when-disabled injection points: a
// nil *Injector adds exactly one pointer compare to the hot paths (see
// ring.Ring.SetFaultInjector), so the production configuration pays nothing.
// When armed, the injector counts every visit to an injection site and
// corrupts the data of one pre-selected visit, which makes campaigns exactly
// reproducible: the same seed and arming schedule corrupt the same bit of
// the same coefficient of the same limb on every run.
//
// Fault classes and the hardware events they model:
//
//	BitFlip        — a single-bit upset in an HBM word or datapath register
//	MultiBitFlip   — a burst error corrupting several bits of one word
//	StuckLane      — one SIMD lane of the 512-lane datapath repeating a
//	                 stale value across a whole limb
//	DroppedTwiddle — a twiddle-factor load that never arrived, zeroing the
//	                 contribution of one butterfly constant (a strided
//	                 subset of the limb)
//	Panic          — a software stand-in for an abort mid-operation, used
//	                 to prove scratch-arena and error-boundary hygiene
package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"poseidon/internal/numeric"
)

// Class enumerates the modeled hardware fault classes.
type Class int

const (
	// BitFlip flips one uniformly chosen bit of one coefficient.
	BitFlip Class = iota
	// MultiBitFlip flips 2–8 bits of one coefficient.
	MultiBitFlip
	// StuckLane overwrites every coefficient of one lane (index ≡ lane mod
	// LaneWidth) with the bitwise complement of the lane's first value —
	// guaranteed to change the limb.
	StuckLane
	// DroppedTwiddle zeroes the strided subset of coefficients one twiddle
	// constant feeds (stride 2^k for a random stage k).
	DroppedTwiddle
	// Panic raises a runtime panic at the injection site instead of
	// corrupting data, exercising panic-recovery and scratch-release paths.
	Panic
	numClasses
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case BitFlip:
		return "bitflip"
	case MultiBitFlip:
		return "multibitflip"
	case StuckLane:
		return "stucklane"
	case DroppedTwiddle:
		return "droppedtwiddle"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Site identifies a family of injection points.
type Site int

const (
	// SiteHBM is the storage boundary: a polynomial limb read back from
	// (modeled) HBM at the start of a guarded operation. Corruption here is
	// what the residue checksums catch.
	SiteHBM Site = iota
	// SiteNTT is the datapath load feeding a forward NTT limb transform.
	SiteNTT
	// SiteINTT is the datapath load feeding an inverse NTT limb transform.
	SiteINTT
	numSites
)

// String names the site for reports.
func (s Site) String() string {
	switch s {
	case SiteHBM:
		return "hbm"
	case SiteNTT:
		return "ntt"
	case SiteINTT:
		return "intt"
	}
	return fmt.Sprintf("Site(%d)", int(s))
}

// LaneWidth is the modeled datapath lane count (the paper's 512-lane
// operator cores); StuckLane faults repeat with this stride.
const LaneWidth = 512

// Persistence classifies how injected corruption behaves on subsequent
// reads of the same data — the property that decides whether op-level
// re-execution can ever succeed.
type Persistence int

const (
	// Sticky corruption stays in the (modeled) memory cell: every re-read
	// of the corrupted limb sees the corrupted words until something
	// rewrites them. A retry from the same inputs is doomed. This is the
	// latched-error model and the behavior of ArmAt.
	Sticky Persistence = iota
	// Transient corruption clears on re-read: after the corrupted limb has
	// been read `decay` further times, the injector restores the original
	// words — a single-event upset scrubbed by the next refresh cycle.
	// decay bounds how many re-executions still observe the fault, so a
	// retry budget larger than decay recovers and a smaller one does not.
	Transient
)

// healRecord tracks one pending transient corruption: the slice identity
// (arena storage is reused, so &c[0] plus the corrupted values pin the
// match), the indices touched, and both the original and corrupted words.
// The record heals — restores orig — once remaining matching reads have
// elapsed, and is dropped without healing if the data was rewritten in the
// meantime (the corruption is gone; restoring stale words would itself be
// a corruption).
type healRecord struct {
	site      Site
	limb      int
	ptr       *uint64
	idx       []int
	orig      []uint64
	cur       []uint64
	remaining int
}

// matches reports whether a read of c at site/limb addresses this record's
// still-corrupted data.
func (h *healRecord) matches(site Site, limb int, c []uint64) bool {
	if site != h.site || limb != h.limb || len(c) == 0 || &c[0] != h.ptr {
		return false
	}
	for k, j := range h.idx {
		if j >= len(c) || c[j] != h.cur[k] {
			return false
		}
	}
	return true
}

// Injection records one applied fault, for campaign attribution.
type Injection struct {
	Site  Site
	Class Class
	Visit uint64 // site-local visit index the fault fired at
	Limb  int    // limb index passed by the injection point
	Coeff int    // first corrupted coefficient
	Bit   int    // flipped bit (BitFlip only, else -1)
}

// Stats is a snapshot of the injector's counters.
type Stats struct {
	Visits   [numSites]uint64 // per-site injection-point visits
	Injected uint64           // faults actually applied
	Healed   uint64           // transient corruptions restored after decay
}

// VisitsAt returns the visit count recorded for one site.
func (s Stats) VisitsAt(site Site) uint64 { return s.Visits[site] }

// Injector deterministically corrupts data at injection points. The zero
// value is not usable; construct with NewInjector. All methods are safe for
// concurrent use (the hot path takes a mutex only when the injector is
// installed, which production configurations never do).
type Injector struct {
	mu  sync.Mutex
	rng *rand.Rand

	visits [numSites]uint64

	armed      bool
	armSite    Site
	armClass   Class
	armVisit   uint64 // fire when the site counter reaches this value
	armMode    Persistence
	armDecay   int
	injected   uint64
	healed     uint64
	injections []Injection
	heals      []*healRecord // pending transient corruptions awaiting decay
}

// NewInjector creates an injector whose corruption choices (coefficient,
// bit, lane, stride) derive deterministically from seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// ResetVisits zeroes the per-site visit counters (arming state and
// injection log are preserved), so each campaign trial addresses visits
// from zero. Pending transient heal records are dropped: a new trial
// rebuilds its data, and stale undo records must never touch reused arena
// storage.
func (in *Injector) ResetVisits() {
	in.mu.Lock()
	in.visits = [numSites]uint64{}
	in.heals = nil
	in.mu.Unlock()
}

// ArmAt schedules one Sticky fault of the given class at the visit-th
// upcoming visit of site (counting from the current ResetVisits). The
// injector disarms after firing.
func (in *Injector) ArmAt(site Site, class Class, visit uint64) {
	in.ArmAtMode(site, class, visit, Sticky, 0)
}

// ArmAtMode is ArmAt with an explicit persistence mode. decay only applies
// to Transient faults: the corruption self-heals after the corrupted limb
// has been re-read decay further times (decay 0 heals on the very next
// re-read).
func (in *Injector) ArmAtMode(site Site, class Class, visit uint64, mode Persistence, decay int) {
	in.mu.Lock()
	in.armed = true
	in.armSite = site
	in.armClass = class
	in.armVisit = visit
	in.armMode = mode
	in.armDecay = decay
	in.mu.Unlock()
}

// ArmRandom arms one Sticky fault of the given class at a uniformly random
// visit in [0, totalVisits) of site, and returns the chosen visit.
func (in *Injector) ArmRandom(site Site, class Class, totalVisits uint64) uint64 {
	in.mu.Lock()
	var v uint64
	if totalVisits > 0 {
		v = uint64(in.rng.Int63n(int64(totalVisits)))
	}
	in.armed = true
	in.armSite = site
	in.armClass = class
	in.armVisit = v
	in.armMode = Sticky
	in.armDecay = 0
	in.mu.Unlock()
	return v
}

// ArmWithin arms one fault at a uniformly random visit within the next
// `window` visits of site, counting from the live visit counter — the
// arming primitive for chaos campaigns against a running system, where
// visit counts grow monotonically and arming relative to zero would never
// fire. Returns the chosen absolute visit.
func (in *Injector) ArmWithin(site Site, class Class, window uint64, mode Persistence, decay int) uint64 {
	in.mu.Lock()
	v := in.visits[site]
	if window > 0 {
		v += uint64(in.rng.Int63n(int64(window)))
	}
	in.armed = true
	in.armSite = site
	in.armClass = class
	in.armVisit = v
	in.armMode = mode
	in.armDecay = decay
	in.mu.Unlock()
	return v
}

// Pending reports whether a fault is armed and has not fired yet.
func (in *Injector) Pending() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.armed
}

// Disarm cancels any pending fault.
func (in *Injector) Disarm() {
	in.mu.Lock()
	in.armed = false
	in.mu.Unlock()
}

// Stats returns a snapshot of the counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{Visits: in.visits, Injected: in.injected, Healed: in.healed}
}

// Injections returns the applied-fault log.
func (in *Injector) Injections() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Injection, len(in.injections))
	copy(out, in.injections)
	return out
}

// OnLimbRead is the injection point: ring and guard code call it whenever a
// limb's coefficients are (conceptually) read from HBM or fed into a
// datapath. When counting only, it increments the site counter; when the
// armed visit is reached it corrupts c in place (or panics, for the Panic
// class) and disarms.
func (in *Injector) OnLimbRead(site Site, limb int, c []uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v := in.visits[site]
	in.visits[site]++
	if len(in.heals) > 0 {
		in.decayHeals(site, limb, c)
	}
	if !in.armed || site != in.armSite || v != in.armVisit {
		return
	}
	in.armed = false
	class := in.armClass
	in.injected++
	if class == Panic {
		in.injections = append(in.injections, Injection{
			Site: site, Class: class, Visit: v, Limb: limb, Coeff: -1, Bit: -1,
		})
		panic(fmt.Sprintf("fault: injected panic at %s visit %d (limb %d)", site, v, limb))
	}
	var h *healRecord
	if in.armMode == Transient {
		h = &healRecord{site: site, limb: limb, remaining: in.armDecay}
		if len(c) > 0 {
			h.ptr = &c[0]
		}
	}
	rec := in.corrupt(class, c, h)
	rec.Site, rec.Class, rec.Visit, rec.Limb = site, class, v, limb
	if h != nil && len(h.idx) > 0 {
		in.heals = append(in.heals, h)
	}
	in.injections = append(in.injections, rec)
}

// decayHeals walks the pending transient corruptions for one that matches
// this read. A match still within its decay window stays corrupted for
// this read; one whose window has elapsed is restored in place (the caller
// reads clean data). Records whose data was rewritten since injection are
// dropped without touching memory. Caller holds the lock.
func (in *Injector) decayHeals(site Site, limb int, c []uint64) {
	for i := 0; i < len(in.heals); i++ {
		h := in.heals[i]
		if !h.matches(site, limb, c) {
			if site == h.site && limb == h.limb && len(c) > 0 && &c[0] == h.ptr {
				// Same storage, different words: the corruption was
				// overwritten by new data. The fault is gone; forget it.
				in.heals = append(in.heals[:i], in.heals[i+1:]...)
				i--
			}
			continue
		}
		if h.remaining > 0 {
			h.remaining--
			return
		}
		for k, j := range h.idx {
			c[j] = h.orig[k]
		}
		in.healed++
		in.heals = append(in.heals[:i], in.heals[i+1:]...)
		return
	}
}

// corrupt applies one fault of the given class to c, recording undo
// information into h when the fault is transient. Caller holds the lock.
func (in *Injector) corrupt(class Class, c []uint64, h *healRecord) Injection {
	rec := Injection{Coeff: -1, Bit: -1}
	if len(c) == 0 {
		return rec
	}
	note := func(j int) {
		if h != nil {
			h.idx = append(h.idx, j)
			h.orig = append(h.orig, c[j])
		}
	}
	wrote := func(j int) {
		if h != nil {
			h.cur = append(h.cur, c[j])
		}
	}
	switch class {
	case BitFlip:
		j := in.rng.Intn(len(c))
		b := in.rng.Intn(64)
		note(j)
		c[j] ^= 1 << uint(b)
		wrote(j)
		rec.Coeff, rec.Bit = j, b
	case MultiBitFlip:
		j := in.rng.Intn(len(c))
		k := 2 + in.rng.Intn(7) // 2..8 bits
		note(j)
		for i := 0; i < k; i++ {
			c[j] ^= 1 << uint(in.rng.Intn(64))
		}
		wrote(j)
		rec.Coeff = j
	case StuckLane:
		width := LaneWidth
		if width > len(c) {
			width = len(c)
		}
		lane := in.rng.Intn(width)
		stuck := ^c[lane] // complement guarantees the limb changes
		for j := lane; j < len(c); j += width {
			note(j)
			c[j] = stuck
			wrote(j)
		}
		rec.Coeff = lane
	case DroppedTwiddle:
		// One twiddle constant feeds every 2^k-th butterfly: zero that
		// strided subset, as if its load never completed.
		maxK := 1
		for 1<<uint(maxK+1) < len(c) {
			maxK++
		}
		stride := 1 << uint(1+in.rng.Intn(maxK))
		off := in.rng.Intn(stride)
		for j := off; j < len(c); j += stride {
			note(j)
			c[j] = 0
			wrote(j)
		}
		rec.Coeff = off
	}
	return rec
}

// Checksum returns the residue checksum of one limb: the sum of its words
// mod q. The raw words are summed in 128 bits and the total is reduced once,
// by ReduceWide, which is exact for any 128-bit value. A sum mod q does not
// depend on when it is reduced, so the value is Σ (v mod q) mod q for every
// input, words ≥ q included: the checksum is defined for corrupted words, and
// any single-bit flip changes it — the flip alters the word by ±2^b, and 2^b
// mod q is never zero for an odd prime q.
func Checksum(mod numeric.Modulus, c []uint64) uint64 {
	return mod.ReduceWide(wideSum(c))
}

// wideSum returns the 128-bit sum of c, kept in four independent
// accumulators — a 64-bit sum and a count of its carries each — so the adds
// of one round do not wait on each other. It is apart from Checksum so the
// loop's registers hold the accumulators, not the modulus.
func wideSum(c []uint64) (hi, lo uint64) {
	var s0, s1, s2, s3, k0, k1, k2, k3, cy uint64
	n := len(c) &^ 3
	for j := 3; j < n; j += 4 {
		s0, cy = bits.Add64(s0, c[j-3], 0)
		k0 += cy
		s1, cy = bits.Add64(s1, c[j-2], 0)
		k1 += cy
		s2, cy = bits.Add64(s2, c[j-1], 0)
		k2 += cy
		s3, cy = bits.Add64(s3, c[j], 0)
		k3 += cy
	}
	for _, v := range c[n:] {
		s0, cy = bits.Add64(s0, v, 0)
		k0 += cy
	}
	lo, c1 := bits.Add64(s0, s1, 0)
	lo, c2 := bits.Add64(lo, s2, 0)
	lo, c3 := bits.Add64(lo, s3, 0)
	return k0 + k1 + k2 + k3 + c1 + c2 + c3, lo
}

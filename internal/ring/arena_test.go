package ring

import (
	"math/rand"
	"testing"
)

// The arena must hand back the same backing storage it was given: a
// Get after a Put of the same size class is a recycle, not an allocation.
func TestArenaRecycles(t *testing.T) {
	a := NewArena(64, 4)
	p := a.GetDirty(3)
	base := &p.Coeffs[0][0]
	a.Put(p)
	q := a.GetDirty(3)
	if &q.Coeffs[0][0] != base {
		t.Fatal("arena did not recycle the returned poly")
	}
	st := a.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want Gets=2 Puts=1 Misses=1", st)
	}
	if st.BytesAllocated != 3*64*8 {
		t.Fatalf("BytesAllocated = %d, want %d", st.BytesAllocated, 3*64*8)
	}
}

// Size classes are keyed by limb count: a 2-limb poly never serves a 3-limb
// request, and a poly that lost a limb since its checkout is filed under the
// class it was drawn from (its capacity).
func TestArenaSizeClasses(t *testing.T) {
	a := NewArena(32, 4)
	p2 := a.GetDirty(2)
	a.Put(p2)
	misses := a.Stats().Misses
	p3 := a.GetDirty(3)
	if &p3.Coeffs[0][0] == &p2.Coeffs[0][0] || a.Stats().Misses != misses+1 {
		t.Fatal("3-limb request served from the 2-limb class")
	}
	// A poly resliced since its checkout returns to the class it was drawn
	// from, and its bytes leave BytesInUse in full.
	baseline := a.Stats().BytesInUse - 3*32*8
	p3.Coeffs = p3.Coeffs[:2]
	a.Put(p3)
	if inUse := a.Stats().BytesInUse; inUse != baseline {
		t.Fatalf("BytesInUse %d after returning a dropped poly, baseline %d", inUse, baseline)
	}
	// Each class serves back the poly filed under it, with no miss.
	misses = a.Stats().Misses
	if q := a.GetDirty(3); len(q.Coeffs) != 3 || &q.Coeffs[0][0] != &p3.Coeffs[0][0] {
		t.Fatal("3-limb request not served the returned 3-limb poly in full")
	}
	if q := a.GetDirty(2); &q.Coeffs[0][0] != &p2.Coeffs[0][0] {
		t.Fatal("2-limb request not served the returned 2-limb poly")
	}
	if m := a.Stats().Misses; m != misses {
		t.Fatalf("recycled draws missed %d times", m-misses)
	}
}

// Get must zero; GetDirty need not.
func TestArenaGetZeroes(t *testing.T) {
	a := NewArena(16, 2)
	p := a.GetDirty(2)
	for i := range p.Coeffs {
		for j := range p.Coeffs[i] {
			p.Coeffs[i][j] = 0xABCD
		}
	}
	a.Put(p)
	q := a.Get(2)
	for i := range q.Coeffs {
		for j, w := range q.Coeffs[i] {
			if w != 0 {
				t.Fatalf("Get returned dirty word at limb %d coeff %d: %#x", i, j, w)
			}
		}
	}
}

// In-use byte accounting must rise on Get, fall on Put, and record the
// high-water mark.
func TestArenaByteAccounting(t *testing.T) {
	a := NewArena(64, 4)
	p1 := a.GetDirty(4)
	p2 := a.GetDirty(2)
	st := a.Stats()
	wantInUse := uint64((4 + 2) * 64 * 8)
	if st.BytesInUse != wantInUse || st.PeakBytes != wantInUse {
		t.Fatalf("in-use accounting: %+v, want BytesInUse=PeakBytes=%d", st, wantInUse)
	}
	a.Put(p1)
	a.Put(p2)
	st = a.Stats()
	if st.BytesInUse != 0 {
		t.Fatalf("BytesInUse = %d after returning everything", st.BytesInUse)
	}
	if st.PeakBytes != wantInUse {
		t.Fatalf("PeakBytes = %d, want high-water %d", st.PeakBytes, wantInUse)
	}
}

// A poly that does not belong to the arena's geometry must be rejected —
// returning a prefix view or another ring's poly would corrupt the free
// lists silently — and not counted as a return, which would leave
// BytesInUse off for good.
func TestArenaForeignPolyPanics(t *testing.T) {
	a := NewArena(32, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a foreign poly did not panic")
		}
		if st := a.Stats(); st.Puts != 0 || st.BytesInUse != 0 {
			t.Fatalf("foreign poly counted as a return: %+v", st)
		}
	}()
	a.Put(newPoly(16, 2)) // wrong N
}

// Poison mode: writing through a retained reference after Put must be
// caught at the next checkout of that buffer.
func TestArenaPoisonWriteAfterPut(t *testing.T) {
	a := NewArena(32, 2)
	a.SetPoison(true)
	p := a.GetDirty(2)
	a.Put(p)
	p.Coeffs[1][7] = 42 // aliasing bug: the caller kept writing
	defer func() {
		if recover() == nil {
			t.Fatal("write-after-Put was not detected")
		}
	}()
	a.GetDirty(2)
}

// Poison mode: returning the same poly twice must panic rather than serve
// one buffer to two owners.
func TestArenaPoisonDoublePut(t *testing.T) {
	a := NewArena(32, 2)
	a.SetPoison(true)
	p := a.GetDirty(2)
	a.Put(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double Put was not detected")
		}
	}()
	a.Put(p)
}

// Aliasing fuzz: a random interleaving of checkouts, full overwrites, and
// returns across all size classes, with poison verification on. Every
// checked-out poly is exclusively owned, so however the interleaving goes,
// no poison panic may fire — if one does, the arena leaked a buffer to two
// owners.
func TestArenaAliasingFuzz(t *testing.T) {
	const n = 64
	a := NewArena(n, 5)
	a.SetPoison(true)
	rng := rand.New(rand.NewSource(99))

	type held struct {
		p     *Poly
		stamp uint64
	}
	var live []held
	fill := func(p *Poly, stamp uint64) {
		for i := range p.Coeffs {
			for j := range p.Coeffs[i] {
				p.Coeffs[i][j] = stamp ^ uint64(i<<16) ^ uint64(j)
			}
		}
	}
	check := func(h held) {
		for i := range h.p.Coeffs {
			for j, w := range h.p.Coeffs[i] {
				if w != h.stamp^uint64(i<<16)^uint64(j) {
					t.Fatalf("held poly mutated at limb %d coeff %d: someone else wrote our buffer", i, j)
				}
			}
		}
	}

	for step := 0; step < 5000; step++ {
		if len(live) == 0 || (len(live) < 32 && rng.Intn(2) == 0) {
			limbs := 1 + rng.Intn(5)
			var p *Poly
			if rng.Intn(2) == 0 {
				p = a.Get(limbs)
			} else {
				p = a.GetDirty(limbs)
			}
			h := held{p: p, stamp: rng.Uint64()}
			fill(p, h.stamp)
			live = append(live, h)
		} else {
			k := rng.Intn(len(live))
			check(live[k]) // our exclusive buffer must be untouched
			a.Put(live[k].p)
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	for _, h := range live {
		check(h)
		a.Put(h.p)
	}
	st := a.Stats()
	if st.Gets != st.Puts {
		t.Fatalf("leak: Gets=%d Puts=%d", st.Gets, st.Puts)
	}
	if st.BytesInUse != 0 {
		t.Fatalf("BytesInUse=%d after returning everything", st.BytesInUse)
	}
}

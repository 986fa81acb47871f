package fault

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"poseidon/internal/numeric"
)

func testModulus(t *testing.T) numeric.Modulus {
	t.Helper()
	ps, err := numeric.GenerateNTTPrimes(50, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	return numeric.NewModulus(ps[0])
}

func testLimb(mod numeric.Modulus, n int) []uint64 {
	c := make([]uint64, n)
	for j := range c {
		c[j] = (uint64(j)*2654435761 + 12345) % mod.Q
	}
	return c
}

// Every class must actually change the limb, and the injector must fire at
// exactly the armed visit, once.
func TestInjectorFiresAtArmedVisit(t *testing.T) {
	mod := testModulus(t)
	for _, class := range []Class{BitFlip, MultiBitFlip, StuckLane, DroppedTwiddle} {
		in := NewInjector(7)
		in.ArmAt(SiteNTT, class, 3)
		ref := testLimb(mod, 256)
		for v := 0; v < 6; v++ {
			c := testLimb(mod, 256)
			in.OnLimbRead(SiteNTT, 0, c)
			changed := false
			for j := range c {
				if c[j] != ref[j] {
					changed = true
					break
				}
			}
			if (v == 3) != changed {
				t.Fatalf("%v: visit %d changed=%v, want fire only at visit 3", class, v, changed)
			}
		}
		st := in.Stats()
		if st.Injected != 1 || st.VisitsAt(SiteNTT) != 6 {
			t.Fatalf("%v: stats = %+v, want 1 injection over 6 visits", class, st)
		}
		log := in.Injections()
		if len(log) != 1 || log[0].Class != class || log[0].Visit != 3 {
			t.Fatalf("%v: injection log %+v", class, log)
		}
	}
}

// The same seed and arming schedule must corrupt identically.
func TestInjectorDeterministic(t *testing.T) {
	mod := testModulus(t)
	run := func() []uint64 {
		in := NewInjector(99)
		in.ArmAt(SiteHBM, MultiBitFlip, 0)
		c := testLimb(mod, 128)
		in.OnLimbRead(SiteHBM, 2, c)
		return c
	}
	a, b := run(), run()
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("corruption not deterministic at coeff %d", j)
		}
	}
}

// Sites count independently; an armed fault on one site never fires on
// another.
func TestInjectorSiteIsolation(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(1)
	in.ArmAt(SiteHBM, BitFlip, 0)
	c := testLimb(mod, 64)
	ref := testLimb(mod, 64)
	in.OnLimbRead(SiteNTT, 0, c)
	in.OnLimbRead(SiteINTT, 0, c)
	for j := range c {
		if c[j] != ref[j] {
			t.Fatal("fault armed for hbm fired on another site")
		}
	}
	in.OnLimbRead(SiteHBM, 0, c)
	if in.Stats().Injected != 1 {
		t.Fatal("armed hbm fault did not fire on hbm visit 0")
	}
}

// The Panic class must raise at the armed visit.
func TestInjectorPanicClass(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(5)
	in.ArmAt(SiteNTT, Panic, 1)
	c := testLimb(mod, 64)
	in.OnLimbRead(SiteNTT, 0, c)
	defer func() {
		if recover() == nil {
			t.Fatal("injected panic did not fire")
		}
		if in.Stats().Injected != 1 {
			t.Fatal("panic injection not counted")
		}
	}()
	in.OnLimbRead(SiteNTT, 0, c)
}

// A single-bit flip anywhere in the limb must change the sum-mod-q
// checksum: 2^b mod q is nonzero for every odd prime q and b < 64.
func TestChecksumDetectsEverySingleBitFlip(t *testing.T) {
	mod := testModulus(t)
	c := testLimb(mod, 64)
	base := Checksum(mod, c)
	for j := 0; j < len(c); j++ {
		for b := 0; b < 64; b++ {
			c[j] ^= 1 << uint(b)
			if Checksum(mod, c) == base {
				t.Fatalf("flip of coeff %d bit %d not detected", j, b)
			}
			c[j] ^= 1 << uint(b)
		}
	}
	if Checksum(mod, c) != base {
		t.Fatal("checksum not restored after un-flipping")
	}
}

// bigSum is the checksum's referee: the sum of c mod q in math/big, which
// shares no code with numeric.Modulus.
func bigSum(q uint64, c []uint64) uint64 {
	s := new(big.Int)
	for _, v := range c {
		s.Add(s, new(big.Int).SetUint64(v))
	}
	return s.Mod(s, new(big.Int).SetUint64(q)).Uint64()
}

// checksumReduceEach is the checksum body Checksum replaced: every word
// reduced and added mod q. It stays here as BenchmarkChecksum's reference.
func checksumReduceEach(mod numeric.Modulus, c []uint64) uint64 {
	var s uint64
	for _, v := range c {
		s = mod.Add(s, mod.Reduce(v))
	}
	return s
}

// Checksum is the sum of a limb's words mod q, whatever the words: math/big
// referees it on edge words (0, 1, q−1, q and words above q up to 2^64−1),
// on every length 0–7 (the tails of the four-way unrolled loop), on full
// N = 8192 rows at the prime widths production runs and at the widest
// modulus numeric allows, and on an N = 2^16 row of 2^64−1 words — the
// largest carry count a ring of this repo can produce.
func TestChecksumMatchesBigSum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	row := func(n int, f func() uint64) []uint64 {
		c := make([]uint64, n)
		for j := range c {
			c[j] = f()
		}
		return c
	}
	for _, bits := range []int{45, 55, 58, numeric.MaxModulusBits} {
		ps, err := numeric.GenerateNTTPrimes(bits, 13, 1)
		if err != nil {
			t.Fatal(err)
		}
		mod := numeric.NewModulus(ps[0])
		q := mod.Q
		rows := map[string][]uint64{
			"edges":    {0, 1, q - 1, q, q + 1, 2*q - 1, 2 * q, math.MaxUint64 - 1, math.MaxUint64},
			"residues": row(8192, func() uint64 { return rng.Uint64() % q }),
			"words":    row(8192, rng.Uint64),
			"q-1":      row(8192, func() uint64 { return q - 1 }),
			"2^64-1":   row(8192, func() uint64 { return math.MaxUint64 }),
		}
		for n := 0; n < 8; n++ {
			rows[fmt.Sprintf("len%d", n)] = row(n, rng.Uint64)
			rows[fmt.Sprintf("len%d/2^64-1", n)] = row(n, func() uint64 { return math.MaxUint64 })
		}
		if bits == numeric.MaxModulusBits {
			rows["N=2^16/2^64-1"] = row(1<<16, func() uint64 { return math.MaxUint64 })
		}
		for name, c := range rows {
			if got, want := Checksum(mod, c), bigSum(q, c); got != want {
				t.Errorf("%d-bit q, %s: Checksum = %d, math/big sum = %d", bits, name, got, want)
			}
		}
	}
}

// FuzzChecksum referees Checksum against math/big on fuzzed words (the
// input's bytes, eight to a word) and a fuzzed prime width.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 8*13), uint8(57))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(41))
	mods := map[int]numeric.Modulus{}
	f.Fuzz(func(t *testing.T, data []byte, width uint8) {
		bits := 4 + int(width)%(numeric.MaxModulusBits-3) // [4, MaxModulusBits]
		mod, ok := mods[bits]
		if !ok {
			ps, err := numeric.GenerateNTTPrimes(bits, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			mod = numeric.NewModulus(ps[0])
			mods[bits] = mod
		}
		c := make([]uint64, len(data)/8)
		for j := range c {
			c[j] = binary.LittleEndian.Uint64(data[8*j:])
		}
		if got, want := Checksum(mod, c), bigSum(mod.Q, c); got != want {
			t.Fatalf("q = %d, %d words: Checksum = %d, math/big sum = %d", mod.Q, len(c), got, want)
		}
	})
}

// BenchmarkChecksum times Checksum beside the reduce-every-word body it
// replaced, in ns a coefficient, at two ring sizes and two prime widths on
// rows of residues (what a sealed limb holds).
func BenchmarkChecksum(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	for _, bits := range []int{45, 58} {
		ps, err := numeric.GenerateNTTPrimes(bits, 13, 1)
		if err != nil {
			b.Fatal(err)
		}
		mod := numeric.NewModulus(ps[0])
		for _, n := range []int{2048, 8192} {
			c := make([]uint64, n)
			for j := range c {
				c[j] = rng.Uint64() % mod.Q
			}
			for _, body := range []struct {
				name string
				fn   func(numeric.Modulus, []uint64) uint64
			}{{"carry-save", Checksum}, {"reduce-each", checksumReduceEach}} {
				b.Run(fmt.Sprintf("%s/N=%d/q=%dbit", body.name, n, bits), func(b *testing.B) {
					var sink uint64
					for i := 0; i < b.N; i++ {
						sink += body.fn(mod, c)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/coeff")
					if sink == 1 {
						b.Log(sink) // keeps the result live
					}
				})
			}
		}
	}
}

// ResetVisits re-zeroes the site counters so trial k addresses visits from
// zero again.
func TestResetVisits(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(3)
	c := testLimb(mod, 32)
	in.OnLimbRead(SiteHBM, 0, c)
	in.OnLimbRead(SiteHBM, 0, c)
	in.ResetVisits()
	if got := in.Stats().VisitsAt(SiteHBM); got != 0 {
		t.Fatalf("visits after reset = %d, want 0", got)
	}
	in.ArmAt(SiteHBM, BitFlip, 0)
	in.OnLimbRead(SiteHBM, 0, c)
	if in.Stats().Injected != 1 {
		t.Fatal("post-reset visit 0 did not fire")
	}
}

// A transient fault must stay visible for exactly `decay` further reads of
// the corrupted limb, then heal in place: the next read sees the original
// words again.
func TestTransientFaultHealsAfterDecay(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(11)
	in.ArmAtMode(SiteHBM, BitFlip, 0, Transient, 2)
	ref := testLimb(mod, 128)
	c := testLimb(mod, 128)

	corrupted := func() bool {
		for j := range c {
			if c[j] != ref[j] {
				return true
			}
		}
		return false
	}

	in.OnLimbRead(SiteHBM, 0, c) // fires
	if !corrupted() {
		t.Fatal("armed transient fault did not corrupt")
	}
	for r := 0; r < 2; r++ { // decay window: still corrupted
		in.OnLimbRead(SiteHBM, 0, c)
		if !corrupted() {
			t.Fatalf("read %d inside decay window already healed", r+1)
		}
	}
	in.OnLimbRead(SiteHBM, 0, c) // window elapsed: heals
	if corrupted() {
		t.Fatal("transient fault did not heal after decay window")
	}
	if st := in.Stats(); st.Healed != 1 || st.Injected != 1 {
		t.Fatalf("stats = %+v, want 1 injection and 1 heal", st)
	}
}

// Sticky is the default and must never heal, no matter how many re-reads.
func TestStickyFaultNeverHeals(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(12)
	in.ArmAtMode(SiteHBM, BitFlip, 0, Sticky, 0)
	ref := testLimb(mod, 128)
	c := testLimb(mod, 128)
	for v := 0; v < 8; v++ {
		in.OnLimbRead(SiteHBM, 0, c)
	}
	same := true
	for j := range c {
		if c[j] != ref[j] {
			same = false
		}
	}
	if same {
		t.Fatal("sticky fault vanished")
	}
	if st := in.Stats(); st.Healed != 0 {
		t.Fatalf("sticky fault healed: %+v", st)
	}
}

// If the corrupted storage is rewritten before the decay window elapses,
// the heal record must be dropped without restoring: writing the old words
// over fresh data would itself be a corruption (arena storage is reused).
func TestTransientHealDroppedOnRewrite(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(13)
	in.ArmAtMode(SiteHBM, BitFlip, 0, Transient, 0)
	c := testLimb(mod, 128)
	in.OnLimbRead(SiteHBM, 0, c) // fires; next matching read would heal

	// Rewrite the limb in place (same backing array — the arena-reuse case).
	fresh := make([]uint64, len(c))
	for j := range fresh {
		fresh[j] = uint64(j) * 31
	}
	copy(c, fresh)

	in.OnLimbRead(SiteHBM, 0, c)
	for j := range c {
		if c[j] != fresh[j] {
			t.Fatalf("heal restored stale words over rewritten data at coeff %d", j)
		}
	}
	if st := in.Stats(); st.Healed != 0 {
		t.Fatalf("dropped record counted as healed: %+v", st)
	}
}

// ArmWithin must arm relative to the live visit counter and fire inside the
// window — the primitive chaos campaigns use against a running system.
func TestArmWithinFiresInsideWindow(t *testing.T) {
	mod := testModulus(t)
	in := NewInjector(14)
	c := testLimb(mod, 64)
	for v := 0; v < 10; v++ { // advance the live counter past zero
		in.OnLimbRead(SiteHBM, 0, c)
	}
	v := in.ArmWithin(SiteHBM, BitFlip, 5, Transient, 1)
	if v < 10 || v >= 15 {
		t.Fatalf("ArmWithin chose visit %d, want within [10, 15)", v)
	}
	for i := 0; i < 5; i++ {
		in.OnLimbRead(SiteHBM, 0, c)
	}
	if in.Stats().Injected != 1 {
		t.Fatal("ArmWithin fault did not fire inside its window")
	}
	if in.Pending() {
		t.Fatal("injector still pending after firing")
	}
}

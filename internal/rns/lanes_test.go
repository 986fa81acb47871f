package rns

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"poseidon/internal/numeric"
)

// goConvert is the reference the lanes are held to: a conversion run block
// by block the way Extend, ExtendDigit, ModDown and Correction run it, but
// with every destination on the Go emit body. Out row r receives
// destination dsts[r]; seed, when not nil, holds ModDown's a_i rows, one
// per out row.
func goConvert(e *Extender, out, in [][]uint64, dsts []int, seed [][]uint64) {
	cols := len(e.src)
	if seed != nil {
		cols++
	}
	var b block
	for t0, n := 0, len(in[0]); t0 < n; t0 += e.blockLen {
		cnt := min(e.blockLen, n-t0)
		e.stage(&b, in, t0, cnt)
		for r, i := range dsts {
			if seed != nil {
				copy(b.ys[len(e.src)*b.stride:][:cnt], seed[r][t0:t0+cnt])
			}
			e.emit(out[r][t0:t0+cnt], i, cols, &b, 0)
		}
	}
}

// upTo returns 0, 1, …, n−1.
func upTo(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// goExtendDigit is ExtendDigit on the Go body: the out rows and destination
// indices of digit dig at the level, the digit's own rows left out.
func goExtendDigit(d *Decomposer, level, dig int, in, out [][]uint64) {
	lo, hi := d.DigitRange(level, dig)
	var rows [][]uint64
	var dsts []int
	for i := 0; i <= level; i++ {
		if i < lo || i >= hi {
			rows, dsts = append(rows, out[i]), append(dsts, i)
		}
	}
	for j := range d.P {
		rows, dsts = append(rows, out[level+1+j]), append(dsts, len(d.Q)+j)
	}
	goConvert(d.extenders[dig][hi-lo-1], rows, in[lo:hi], dsts, nil)
}

// laneInput fills a len(ms)×n matrix row by row with one of four kinds,
// rotating with the row index and variant: all zero, all m−1, random
// residues, or all staged at the widest term. For a source basis (staged)
// that last kind is the words whose y_j is b_j − 1 — x = (b_j − 1)·(B/b_j)
// mod b_j, the largest factor the lanes multiply; for ModDown's seed rows
// it is m − 1 again.
func laneInput(rng *rand.Rand, ms []numeric.Modulus, n, variant int, staged bool) [][]uint64 {
	out := allocLimbs(len(ms), n)
	for i, m := range ms {
		top := m.Q - 1
		if staged {
			top = m.Mul(top, prodMod(m, ms, i))
		}
		for t := range out[i] {
			switch (i + variant) % 4 {
			case 1:
				out[i][t] = m.Q - 1
			case 2:
				out[i][t] = rng.Uint64() % m.Q
			case 3:
				out[i][t] = top
			}
		}
	}
	return out
}

// laneCount tallies, for one extender and column count, how many
// destinations the rule sends to each body.
func laneCount(ran map[numeric.Body]int, e *Extender, cols int, dsts []int) {
	for _, i := range dsts {
		ran[e.lanes(i, cols)]++
	}
}

// Every conversion the evaluator runs — Extend, ExtendDigit of every digit
// at the top level and at a short one, ModDown and Correction — must give
// the Go body's words on every oracle shape, at N = 512 and 8192 and at
// lengths that leave a tail of fewer than eight coefficients, on all-zero,
// all-(m−1), random and widest-staged rows — and every word must be below
// its prime first, so a body that closes to [q, 2q) fails on that by name.
// Where the CPU lacks a vector body both sides run the Go body for those
// destinations, and the log's count by body says so.
func TestLanesMatchGoBody(t *testing.T) {
	ran := map[numeric.Body]int{}
	for _, s := range oracleShapes(t, true) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			for _, n := range []int{13, 517, 512, 8192} {
				for variant := range 4 {
					label := fmt.Sprintf("n=%d variant=%d", n, variant)
					same := func(what string, got, want [][]uint64, mods []numeric.Modulus) {
						t.Helper()
						requireCanonical(t, label+" "+what, got, mods)
						for i := range want {
							if !slices.Equal(got[i], want[i]) {
								t.Fatalf("%s %s: row %d differs from the Go body", label, what, i)
							}
						}
					}
					for _, c := range []struct{ src, dst []numeric.Modulus }{
						{s.p, s.q},
						{s.q[:s.alpha], append(slices.Clone(s.q[s.alpha:]), s.p...)},
					} {
						e := NewExtender(c.src, c.dst)
						in := laneInput(rng, c.src, n, variant, true)
						got, want := allocLimbs(len(c.dst), n), allocLimbs(len(c.dst), n)
						e.Extend(got, in)
						goConvert(e, want, in, upTo(len(c.dst)), nil)
						same("Extend", got, want, c.dst)
						laneCount(ran, e, len(c.src), upTo(len(c.dst)))
					}
					d := NewDecomposer(s.q, s.p, s.alpha)
					for _, level := range []int{len(s.q) - 1, len(s.q) / 2} {
						for dig := range d.Digits(level) {
							lo, hi := d.DigitRange(level, dig)
							in := allocLimbs(level+1, n)
							for i, row := range laneInput(rng, s.q[lo:hi], n, variant, true) {
								copy(in[lo+i], row)
							}
							got, want := allocLimbs(level+1+len(s.p), n), allocLimbs(level+1+len(s.p), n)
							d.ExtendDigit(level, dig, in, got)
							goExtendDigit(d, level, dig, in, want)
							same(fmt.Sprintf("ExtendDigit level %d digit %d", level, dig), got, want, append(slices.Clone(s.q[:level+1]), s.p...))
						}
					}
					md := NewModDownParams(s.q, s.p)
					aP := laneInput(rng, s.p, n, variant, true)
					aQ := laneInput(rng, s.q, n, variant+1, false)
					got, want := allocLimbs(len(s.q), n), allocLimbs(len(s.q), n)
					md.Correction(got, aP)
					goConvert(md.ext, want, aP, upTo(len(s.q)), nil)
					same("Correction", got, want, s.q)
					md.ModDown(got, aQ, aP)
					goConvert(md.ext, want, aP, upTo(len(s.q)), aQ)
					same("ModDown", got, want, s.q)
					// In place, as the evaluator may call it.
					md.ModDown(aQ, aQ, aP)
					same("ModDown in place", aQ, want, s.q)
					laneCount(ran, md.ext, len(s.p)+1, upTo(len(s.q)))
				}
			}
		})
	}
	t.Logf("destination checks by body: %v", ran)
}

// The rule's split on every oracle shape. The IFMA52 lanes take what they
// took before the DQ lanes could convert: every other destination of B9's
// ModDown and Correction, the 45-bit Q rows of its all-45-bit digits, every
// Q row of S11 and P13's digits 1–2 into its 45-bit Q rows. On a DQ host
// the DQ lanes take everything else of the benchmark shapes — digit 0 of
// P13 and B9 (q0 is 55 bits, past the 52-bit multiplier), every P
// destination, q0 as a destination and P13's ModDown (58-bit P sources).
// Only the Tall shape's 61-bit sources meet the DQ budget: each term adds
// up to (⌊y/2^32⌋ + ⌊c/2^32⌋)·2^32 to A1, which must stay below 2^63, so its
// ModUp takes the DQ lanes for at most two terms into a 61-bit destination
// and three into a 45-bit one, four into the 30-bit one, and its ModDown,
// forty terms, keeps Go.
func TestLanesRule(t *testing.T) {
	shapes := oracleShapes(t, true)
	dqHost := shapes[0].q[0].Body() == numeric.BodyDQ // q0 is 55 bits
	want := func(ifma, dq bool, m numeric.Modulus) numeric.Body {
		switch {
		case ifma && m.Body() == numeric.BodyIFMA52:
			return numeric.BodyIFMA52
		case dq && dqHost:
			return numeric.BodyDQ
		}
		return numeric.BodyGo
	}
	// tallDQ is the DQ budget where the Tall shape's sources bind it.
	tallDQ := func(e *Extender, terms int, c numeric.Modulus) bool {
		var y uint64
		for _, m := range e.src {
			y = max(y, m.Q)
		}
		return uint64(terms)*(y>>32+c.Q>>32)<<32 < 1<<63
	}
	for _, s := range shapes {
		d := NewDecomposer(s.q, s.p, s.alpha)
		md := NewModDownParams(s.q, s.p)
		all := append(slices.Clone(s.q), s.p...)
		for dig, sizes := range d.extenders {
			for size, e := range sizes {
				for i, m := range all {
					ifma := i < len(s.q) && s.name != "Tall" && !(dig == 0 && (s.name == "P13" || s.name == "B9"))
					dq := s.name != "Tall" || tallDQ(e, size+2, m)
					if got, w := e.lanes(i, size+1), want(ifma, dq, m); got != w {
						t.Fatalf("%s digit %d size %d: destination %d (%d bits) takes %v, want %v", s.name, dig, size+1, i, m.Bits, got, w)
					}
				}
			}
		}
		for i, m := range s.q {
			for _, cols := range []int{len(s.p), len(s.p) + 1} {
				ifma := s.name != "P13" && s.name != "Tall"
				if got, w := md.ext.lanes(i, cols), want(ifma, s.name != "Tall", m); got != w {
					t.Fatalf("%s ModDown cols %d: destination %d (%d bits) takes %v, want %v", s.name, cols, i, m.Bits, got, w)
				}
			}
		}
	}
	if b9 := shapes[1]; b9.q[1].Body() == numeric.BodyIFMA52 && dqHost {
		md := NewModDownParams(b9.q, b9.p)
		taken := map[numeric.Body]int{}
		for i := range b9.q {
			taken[md.ext.lanes(i, len(b9.p)+1)]++
		}
		if taken[numeric.BodyIFMA52] != 27 || taken[numeric.BodyDQ] != 1 {
			t.Fatalf("B9 ModDown: Q limbs by body %v, want 27 on IFMA52 and q0 on DQ", taken)
		}
	}
}

// fuzzPrimes caches the NTT-friendly primes of each width the fuzzer asks
// for, enough for a source and a destination basis of one width.
var fuzzPrimes = map[int][]numeric.Modulus{}

// maxFuzzSources is the most source primes FuzzEmit draws: past the DQ
// budget of 58-bit sums (16 terms) and of the IFMA52 budget of 52-bit
// sources into a 50-bit prime (three).
const maxFuzzSources = 40

func fuzzBasis(t testing.TB, bits, count, skip int) []numeric.Modulus {
	if _, ok := fuzzPrimes[bits]; !ok {
		ps, err := numeric.GenerateNTTPrimes(bits, 4, maxFuzzSources+2)
		if err != nil {
			t.Fatal(err)
		}
		fuzzPrimes[bits] = moduliOf(ps)
	}
	return fuzzPrimes[bits][skip : skip+count]
}

// fuzzBases returns FuzzEmit's l source primes of sb bits and two
// destination primes of db bits, disjoint from the sources.
func fuzzBases(t testing.TB, sb, db, l int) (src, dst []numeric.Modulus) {
	skip := 0
	if db == sb {
		skip = l
	}
	return fuzzBasis(t, sb, l, 0), fuzzBasis(t, db, 2, skip)
}

// requireCanonical fails unless every word of out is below its row's prime.
func requireCanonical(t *testing.T, what string, out [][]uint64, mods []numeric.Modulus) {
	t.Helper()
	for i, row := range out {
		if j := slices.IndexFunc(row, func(v uint64) bool { return v >= mods[i].Q }); j >= 0 {
			t.Fatalf("%s: row %d word %d is %d, not below its prime %d", what, i, j, row[j], mods[i].Q)
		}
	}
}

// FuzzEmit feeds fuzzer-chosen words through Extend and ModDown, with source
// and destination widths of 30–61 bits, one to maxFuzzSources source primes
// and lengths 1–64, so whichever body the rule picks — IFMA52 or DQ where
// the widths let it, the Go body elsewhere and on the tail — is checked
// against the math/big conversion, and every word it writes must be below
// its prime. The seeds include, for sources and destinations of 45 to 61
// bits, the source counts on both sides of every change of body, so each
// budget's edge runs at once with the widest words.
func FuzzEmit(f *testing.F) {
	f.Add(uint8(22), uint8(15), uint8(4), uint8(63), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(14), uint8(10), uint8(0), uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(21), uint8(19), uint8(1), uint8(7), []byte{})
	f.Add(uint8(31), uint8(0), uint8(2), uint8(40), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x7f})
	ones := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	widths := []int{45, 50, 52, 55, 58, 61}
	for _, sb := range widths {
		for _, db := range widths {
			// The body of each destination, as l sources go to l+1.
			bodies := func(l int, seeded bool) [2]numeric.Body {
				src, dst := fuzzBases(f, sb, db, l)
				e := NewExtender(src, dst)
				if seeded {
					e = NewModDownParams(dst, src).ext
					return [2]numeric.Body{e.lanes(0, l+1), e.lanes(1, l+1)}
				}
				return [2]numeric.Body{e.lanes(0, l), e.lanes(1, l)}
			}
			for l := 1; l < maxFuzzSources; l++ {
				if bodies(l, false) != bodies(l+1, false) || bodies(l, true) != bodies(l+1, true) {
					for _, edge := range []int{l, l + 1} {
						f.Add(uint8(sb-30), uint8(db-30), uint8(edge-1), uint8(63), ones)
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, srcBits, dstBits, srcCount, length uint8, words []byte) {
		sb, db := 30+int(srcBits%32), 30+int(dstBits%32)
		l, n := 1+int(srcCount%maxFuzzSources), 1+int(length%64)
		src, dst := fuzzBases(t, sb, db, l)
		word := func(i int) uint64 {
			var w [8]byte
			for b := range w {
				if len(words) > 0 {
					w[b] = words[(8*i+b)%len(words)]
				}
			}
			return binary.LittleEndian.Uint64(w[:])
		}
		// A word past the top of its range saturates: a fuzzed word is most
		// often the widest staged y_j = b_j − 1 (x = y_j·(B/b_j) mod b_j) or
		// the widest seed word q_i − 1, where the lanes' budget binds.
		in, aQ := allocLimbs(l, n), allocLimbs(len(dst), n)
		for j, m := range src {
			hat := prodMod(m, src, j)
			for c := range in[j] {
				in[j][c] = m.Mul(min(word(j*n+c), m.Q-1), hat)
			}
		}
		for i, m := range dst {
			for c := range aQ[i] {
				aQ[i][c] = min(word((l+i)*n+c+1), m.Q-1)
			}
		}

		out := allocLimbs(len(dst), n)
		NewExtender(src, dst).Extend(out, in)
		requireCanonical(t, "Extend", out, dst)
		basis := newBigBasis(src)
		for c := 0; c < n; c++ {
			x, alt := basis.centered(in, c)
			checkConverted(t, "Extend", out, dst, c, x, alt)
		}
		NewModDownParams(dst, src).ModDown(out, aQ, in)
		requireCanonical(t, "ModDown", out, dst)
		for c := 0; c < n; c++ {
			x, alt := basis.centered(in, c)
			match := func(conv *big.Int) bool {
				for i, m := range dst {
					qi := new(big.Int).SetUint64(m.Q)
					v := new(big.Int).SetUint64(aQ[i][c])
					v.Sub(v, conv).Mul(v, new(big.Int).ModInverse(basis.prod, qi))
					if out[i][c] != v.Mod(v, qi).Uint64() {
						return false
					}
				}
				return true
			}
			if !match(x) && (alt == nil || !match(alt)) {
				t.Fatalf("ModDown coeff %d (source %d-bit ×%d, destination %d-bit): disagrees with exact (aQ − [aP]_P)/P", c, sb, l, db)
			}
		}
	})
}

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
// destinations the rule sends to the lanes and how many keep the Go body.
func laneCount(ran map[bool]int, e *Extender, cols int, dsts []int) {
	for _, i := range dsts {
		ran[e.lanes(i, cols)]++
	}
}

// Every conversion the evaluator runs — Extend, ExtendDigit of every digit
// at the top level and at a short one, ModDown and Correction — must give
// the Go body's words on every oracle shape, at N = 512 and 8192 and at
// lengths that leave a tail of fewer than eight coefficients, on all-zero,
// all-(m−1), random and widest-staged rows. Where the CPU has no IFMA52
// lanes both sides run the Go body, and the log says so.
func TestLanesMatchGoBody(t *testing.T) {
	ran := map[bool]int{}
	for _, s := range oracleShapes(t, true) {
		t.Run(s.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(47))
			for _, n := range []int{13, 517, 512, 8192} {
				for variant := range 4 {
					label := fmt.Sprintf("n=%d variant=%d", n, variant)
					same := func(what string, got, want [][]uint64) {
						t.Helper()
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
						same("Extend", got, want)
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
							same(fmt.Sprintf("ExtendDigit level %d digit %d", level, dig), got, want)
						}
					}
					md := NewModDownParams(s.q, s.p)
					aP := laneInput(rng, s.p, n, variant, true)
					aQ := laneInput(rng, s.q, n, variant+1, false)
					got, want := allocLimbs(len(s.q), n), allocLimbs(len(s.q), n)
					md.Correction(got, aP)
					goConvert(md.ext, want, aP, upTo(len(s.q)), nil)
					same("Correction", got, want)
					md.ModDown(got, aQ, aP)
					goConvert(md.ext, want, aP, upTo(len(s.q)), aQ)
					same("ModDown", got, want)
					// In place, as the evaluator may call it.
					md.ModDown(aQ, aQ, aP)
					same("ModDown in place", aQ, want)
					laneCount(ran, md.ext, len(s.p)+1, upTo(len(s.q)))
				}
			}
		})
	}
	t.Logf("IFMA52 lanes on this CPU: %v; the rule sent %d destination checks to the lanes, %d to the Go body",
		numeric.NewModulus(35184371138561).Body() == numeric.BodyIFMA52, ran[true], ran[false])
}

// The rule keeps the Go body wherever the lanes would read a word the
// multiplier truncates or close a sum past its budget: digit 0 of P13 and
// B9 (q0 is 55 bits), every P destination (51 bits and up), P13's ModDown
// (58-bit P sources) and the Tall shape (61-bit sources). On a CPU with the
// lanes it takes every other destination of B9's ModDown and Correction,
// the 45-bit Q rows of its all-45-bit digits, and every Q row of S11.
func TestLanesRule(t *testing.T) {
	shapes := oracleShapes(t, true)
	for _, s := range shapes {
		d := NewDecomposer(s.q, s.p, s.alpha)
		md := NewModDownParams(s.q, s.p)
		nQP := len(s.q) + len(s.p)
		for dig, sizes := range d.extenders {
			for size, e := range sizes {
				for i := 0; i < nQP; i++ {
					got := e.lanes(i, size+1)
					keepGo := i >= len(s.q) || s.name == "Tall" || (dig == 0 && (s.name == "P13" || s.name == "B9"))
					if got && keepGo {
						t.Fatalf("%s digit %d size %d: destination %d takes the lanes", s.name, dig, size+1, i)
					}
					if want := !keepGo && s.q[i].Body() == numeric.BodyIFMA52; got != want {
						t.Fatalf("%s digit %d size %d: destination %d lanes = %v, want %v", s.name, dig, size+1, i, got, want)
					}
				}
			}
		}
		for i := range s.q {
			for _, cols := range []int{len(s.p), len(s.p) + 1} {
				got := md.ext.lanes(i, cols)
				keepGo := s.name == "P13" || s.name == "Tall"
				if want := !keepGo && s.q[i].Body() == numeric.BodyIFMA52; got != want {
					t.Fatalf("%s ModDown cols %d: destination %d lanes = %v, want %v", s.name, cols, i, got, want)
				}
			}
		}
	}
	if b9 := shapes[1]; b9.q[1].Body() == numeric.BodyIFMA52 {
		md := NewModDownParams(b9.q, b9.p)
		taken := 0
		for i := range b9.q {
			if md.ext.lanes(i, len(b9.p)+1) {
				taken++
			}
		}
		if taken != 27 {
			t.Fatalf("B9 ModDown: %d of 28 Q limbs take the lanes, want 27", taken)
		}
	}
}

// fuzzPrimes caches the NTT-friendly primes of each width the fuzzer asks
// for, enough for a source and a destination basis of one width.
var fuzzPrimes = map[int][]numeric.Modulus{}

func fuzzBasis(t *testing.T, bits, count, skip int) []numeric.Modulus {
	if _, ok := fuzzPrimes[bits]; !ok {
		ps, err := numeric.GenerateNTTPrimes(bits, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		fuzzPrimes[bits] = moduliOf(ps)
	}
	return fuzzPrimes[bits][skip : skip+count]
}

// FuzzEmit feeds fuzzer-chosen words through Extend and ModDown, with source
// and destination widths of 30–61 bits, one to five source primes and
// lengths 1–64, so whichever body the rule picks — the lanes where the
// widths let it, the Go body elsewhere and on the tail — is checked against
// the math/big conversion.
func FuzzEmit(f *testing.F) {
	f.Add(uint8(22), uint8(15), uint8(4), uint8(63), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(14), uint8(10), uint8(0), uint8(16), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(21), uint8(19), uint8(1), uint8(7), []byte{})
	f.Add(uint8(31), uint8(0), uint8(2), uint8(40), []byte{0x80, 0, 0, 0, 0, 0, 0, 0x7f})
	// 52-bit sources into a 50-bit destination: one or two sources fit the
	// lanes' budget, five do not.
	ones := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for _, l := range []uint8{0, 1, 4} {
		f.Add(uint8(22), uint8(20), l, uint8(47), ones)
	}
	f.Fuzz(func(t *testing.T, srcBits, dstBits, srcCount, length uint8, words []byte) {
		sb, db := 30+int(srcBits%32), 30+int(dstBits%32)
		l, n := 1+int(srcCount%5), 1+int(length%64)
		src := fuzzBasis(t, sb, l, 0)
		skip := 0
		if db == sb {
			skip = l
		}
		dst := fuzzBasis(t, db, 2, skip)
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
		basis := newBigBasis(src)
		for c := 0; c < n; c++ {
			x, alt := basis.centered(in, c)
			checkConverted(t, "Extend", out, dst, c, x, alt)
		}
		NewModDownParams(dst, src).ModDown(out, aQ, in)
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

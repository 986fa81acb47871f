package isa

import (
	"strings"
	"testing"

	"poseidon/internal/numeric"
)

// ksConstants derives keyswitch constants over nq 45-bit Q primes and np
// 46-bit P primes at N = 2^8.
func ksConstants(t *testing.T, nq, np, level int) KeySwitchConstants {
	t.Helper()
	moduli := func(bits, count int) []numeric.Modulus {
		ps, err := numeric.GenerateNTTPrimes(bits, 8, count)
		if err != nil {
			t.Fatal(err)
		}
		ms := make([]numeric.Modulus, len(ps))
		for i, p := range ps {
			ms[i] = numeric.NewModulus(p)
		}
		return ms
	}
	return NewKeySwitchConstants(moduli(45, nq), moduli(46, np), level)
}

// opCounts tallies a program's instructions per opcode.
func opCounts(p *Program) map[Opcode]int {
	m := map[Opcode]int{}
	for _, in := range p.Instrs {
		m[in.Op]++
	}
	return m
}

func TestKeySwitchConstantsDigits(t *testing.T) {
	ks := ksConstants(t, 4, 2, 3)
	if len(ks.DigitLo) != 2 {
		t.Fatalf("digits=%d want 2 (level 3, alpha 2)", len(ks.DigitLo))
	}
	if ks.DigitLo[0] != 0 || ks.DigitHi[0] != 2 {
		t.Errorf("digit 0 range [%d,%d) want [0,2)", ks.DigitLo[0], ks.DigitHi[0])
	}
	if ks.DigitLo[1] != 2 || ks.DigitHi[1] != 4 {
		t.Errorf("digit 1 range [%d,%d) want [2,4)", ks.DigitLo[1], ks.DigitHi[1])
	}
	// Partial trailing digit at a lower level.
	ks1 := ksConstants(t, 4, 2, 2)
	if len(ks1.DigitLo) != 2 || ks1.DigitHi[1] != 3 {
		t.Errorf("level-2 digits wrong: %v %v", ks1.DigitLo, ks1.DigitHi)
	}
}

func TestCompileKeySwitchStructure(t *testing.T) {
	ks := ksConstants(t, 4, 2, 3)
	p := CompileKeySwitch(ks, "d2", "key")
	counts := opCounts(p)

	// Every operator family the program has participates.
	for op := Load; op <= INTT; op++ {
		if counts[op] == 0 {
			t.Errorf("keyswitch op mix lacks %v: %v", op, counts)
		}
	}
	// Outputs: p0 and p1 per active Q limb.
	if counts[Store] != 2*(ks.Level+1) {
		t.Errorf("stores=%d want %d", counts[Store], 2*(ks.Level+1))
	}
	// Key loads: 2 components × digits × (level+1+alpha) limbs.
	wantKeyLoads := 2 * len(ks.DigitLo) * (ks.Level + 1 + ks.Alpha)
	keyLoads := 0
	for _, in := range p.Instrs {
		if in.Op == Load && strings.HasPrefix(in.Sym, "key.") {
			keyLoads++
		}
	}
	if keyLoads != wantKeyLoads {
		t.Errorf("key loads=%d want %d", keyLoads, wantKeyLoads)
	}
}

// The keyswitch program's operator mix, opcode by opcode, against the
// closed forms of its three phases over l = level+1 active limbs, digit
// width α and digit sizes s_d: ModUp (per digit s_d y_j scalings, then
// s_d-term MMULS/MADD chains onto the l+α−s_d other limbs), the NTT of the
// extended digit and the MAC against both key components, and ModDown of
// both accumulators (INTT, α y_j, α-term chains onto the l Q limbs, the
// subtraction, the P^-1 scaling, the NTT back).
func TestCompiledProgramsStructure(t *testing.T) {
	for _, c := range []struct{ nq, np, level int }{
		{4, 2, 3}, {4, 2, 2}, {4, 1, 3}, {6, 2, 5}, {5, 3, 4}, {5, 2, 0},
	} {
		ks := ksConstants(t, c.nq, c.np, c.level)
		l, a, dnum := ks.Level+1, ks.Alpha, len(ks.DigitLo)
		ext := l + a
		want := map[Opcode]int{
			Load:       l + 2*dnum*ext,
			Store:      2 * l,
			MMul:       2 * dnum * ext,
			MSub:       2 * l,
			NTT:        dnum*ext + 2*l,
			INTT:       2 * ext,
			MMulScalar: 2 * (a + l*a + l),
			MAdd:       2*(dnum-1)*ext + 2*l*(a-1),
		}
		for d := range ks.DigitLo {
			s := ks.DigitHi[d] - ks.DigitLo[d]
			want[MMulScalar] += s + (ext-s)*s
			want[MAdd] += (ext - s) * (s - 1)
		}
		p := CompileKeySwitch(ks, "in", "key")
		got := opCounts(p)
		for op, n := range want {
			if got[op] != n {
				t.Errorf("|Q|=%d |P|=%d level %d: %v count %d want %d", c.nq, c.np, c.level, op, got[op], n)
			}
		}
		if len(got) != len(want) {
			t.Errorf("|Q|=%d |P|=%d level %d: opcodes %v beyond the keyswitch mix", c.nq, c.np, c.level, got)
		}
		if !strings.Contains(p.Name, "level=") {
			t.Errorf("program name %q should carry the level", p.Name)
		}
	}
}

package machine

import (
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/isa"
	"poseidon/internal/numeric"
)

func testMachine(t testing.TB, n, limbs int) *Machine {
	t.Helper()
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	ps, err := numeric.GenerateNTTPrimes(45, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.U280()
	cfg.Lanes = 64 // small machine for tests
	m, err := New(cfg, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randVec(rng *rand.Rand, n int, q uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % q
	}
	return v
}

// perLimb builds a program that runs body once per ciphertext component
// (c0, c1) and limb: the element-wise programs the tests below use to
// check each executor arm on its own against reference arithmetic.
func perLimb(name string, limbs int, body func(b *isa.Builder, comp string, l int)) *isa.Program {
	b := isa.NewBuilder(name)
	for _, comp := range []string{"c0", "c1"} {
		for l := 0; l < limbs; l++ {
			body(b, comp, l)
		}
	}
	return b.Build()
}

// haddProgram adds ciphertexts "a" and "b" into "out" on the MA core.
func haddProgram(limbs int) *isa.Program {
	return perLimb("HAdd", limbs, func(b *isa.Builder, comp string, l int) {
		b.Store("out."+comp, b.Bin(isa.MAdd, b.Load("a."+comp, l), b.Load("b."+comp, l), l), l)
	})
}

func TestMachineRejectsBadPrograms(t *testing.T) {
	m := testMachine(t, 64, 2)
	// Undefined register read.
	p := &isa.Program{Name: "bad", NumReg: 2, Instrs: []isa.Instr{
		{Op: isa.MAdd, Dst: 1, A: 0, B: 0, Limb: 0},
	}}
	if _, err := m.Run(p); err == nil {
		t.Error("undefined register should error")
	}
	// Missing HBM symbol.
	b := isa.NewBuilder("missing")
	b.Load("nope.m", 0)
	if _, err := m.Run(b.Build()); err == nil {
		t.Error("missing HBM symbol should error")
	}
	// Limb out of range.
	p2 := &isa.Program{Name: "limb", NumReg: 1, Instrs: []isa.Instr{
		{Op: isa.Load, Dst: 0, Limb: 9, Sym: "x"},
	}}
	if _, err := m.Run(p2); err == nil {
		t.Error("limb out of range should error")
	}
}

// The MADD arm must compute exactly what the reference modular addition
// computes, while charging only MA cycles.
func TestProgramHAdd(t *testing.T) {
	n, limbs := 128, 3
	m := testMachine(t, n, limbs)
	rng := rand.New(rand.NewSource(1))
	for _, comp := range []string{"c0", "c1"} {
		for l := 0; l < limbs; l++ {
			m.WriteHBM("a."+comp, l, randVec(rng, n, m.Moduli[l].Q))
			m.WriteHBM("b."+comp, l, randVec(rng, n, m.Moduli[l].Q))
		}
	}
	st, err := m.Run(haddProgram(limbs))
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"c0", "c1"} {
		for l := 0; l < limbs; l++ {
			a, _ := m.ReadHBM("a."+comp, l)
			b, _ := m.ReadHBM("b."+comp, l)
			out, err := m.ReadHBM("out."+comp, l)
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if out[i] != m.Moduli[l].Add(a[i], b[i]) {
					t.Fatalf("%s limb %d index %d: wrong sum", comp, l, i)
				}
			}
		}
	}
	if st.Cycles[isa.MMul] != 0 || st.Cycles[isa.NTT] != 0 {
		t.Error("HAdd must use only the MA core")
	}
	if st.Cycles[isa.MAdd] == 0 {
		t.Error("HAdd must charge MA cycles")
	}
	// Traffic: 2 loads + 1 store per component per limb.
	wantBytes := float64(2*limbs*3*n) * float64(m.Cfg.LimbBytes)
	if st.HBMBytes != wantBytes {
		t.Errorf("HBM bytes %.0f want %.0f", st.HBMBytes, wantBytes)
	}
}

// The MMUL arm must agree with reference modular multiplication.
func TestProgramPMult(t *testing.T) {
	n, limbs := 64, 2
	m := testMachine(t, n, limbs)
	rng := rand.New(rand.NewSource(2))
	for l := 0; l < limbs; l++ {
		m.WriteHBM("a.c0", l, randVec(rng, n, m.Moduli[l].Q))
		m.WriteHBM("a.c1", l, randVec(rng, n, m.Moduli[l].Q))
		m.WriteHBM("pt.m", l, randVec(rng, n, m.Moduli[l].Q))
	}
	pmult := perLimb("PMult", limbs, func(b *isa.Builder, comp string, l int) {
		b.Store("out."+comp, b.Bin(isa.MMul, b.Load("a."+comp, l), b.Load("pt.m", l), l), l)
	})
	if _, err := m.Run(pmult); err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"c0", "c1"} {
		for l := 0; l < limbs; l++ {
			a, _ := m.ReadHBM("a."+comp, l)
			pt, _ := m.ReadHBM("pt.m", l)
			out, _ := m.ReadHBM("out."+comp, l)
			for i := range out {
				if out[i] != m.Moduli[l].Mul(a[i], pt[i]) {
					t.Fatalf("%s limb %d: wrong product", comp, l)
				}
			}
		}
	}
}

// The NTT arm must match the reference table transform bit-exactly (the
// machine uses the fused plan internally) and charge the fused pass count;
// the INTT arm must bring the result back.
func TestProgramNTT(t *testing.T) {
	n, limbs := 256, 2
	m := testMachine(t, n, limbs)
	rng := rand.New(rand.NewSource(3))
	want := make([][]uint64, limbs)
	b := isa.NewBuilder("NTT")
	for l := 0; l < limbs; l++ {
		v := randVec(rng, n, m.Moduli[l].Q)
		m.WriteHBM("a.m", l, v)
		want[l] = append([]uint64(nil), v...)
		m.tables[l].Forward(want[l])
		fwd := b.Unary(isa.NTT, b.Load("a.m", l), l, 0)
		b.Store("out.m", fwd, l)
		b.Store("back.m", b.Unary(isa.INTT, fwd, l, 0), l)
	}
	st, err := m.Run(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < limbs; l++ {
		out, _ := m.ReadHBM("out.m", l)
		back, _ := m.ReadHBM("back.m", l)
		in, _ := m.ReadHBM("a.m", l)
		for i := range out {
			if out[i] != want[l][i] {
				t.Fatalf("limb %d index %d: NTT mismatch", l, i)
			}
			if back[i] != in[i] {
				t.Fatalf("limb %d index %d: INTT did not invert the NTT", l, i)
			}
		}
	}
	// NTT cycles must reflect the fused pass count, one pass set per
	// transform in either direction.
	passes := float64(m.plans[0].Passes())
	wantCycles := passes * float64(n) / float64(m.Cfg.Lanes) * float64(2*limbs)
	if st.Cycles[isa.NTT] != wantCycles {
		t.Errorf("NTT cycles %.1f want %.1f", st.Cycles[isa.NTT], wantCycles)
	}
}

// A rescale built from the INTT, MSUB, MMULS and NTT arms must divide by
// the last prime with rounding, matching the rns.Rescaler reference within
// ±1.
func TestProgramRescale(t *testing.T) {
	n, limbs := 64, 3
	m := testMachine(t, n, limbs)
	rng := rand.New(rand.NewSource(5))

	last := limbs - 1
	qlast := m.Moduli[last]
	qlInv := make([]uint64, limbs-1)
	for l := 0; l < limbs-1; l++ {
		qlInv[l] = m.Moduli[l].Inv(m.Moduli[l].Reduce(qlast.Q))
	}

	// Coefficient-domain input (NTT-domain ciphertext in HBM, so the
	// program INTTs first): build random NTT-domain data, and prepare the
	// host-side centered last-limb vectors the program consumes.
	for _, comp := range []string{"c0", "c1"} {
		coeffs := make([][]uint64, limbs)
		for l := 0; l < limbs; l++ {
			coeffs[l] = randVec(rng, n, m.Moduli[l].Q)
		}
		// The shared value must be consistent across limbs for rescale to
		// mean anything: use the same small integers embedded everywhere.
		for i := 0; i < n; i++ {
			v := int64(rng.Intn(1 << 20))
			for l := 0; l < limbs; l++ {
				coeffs[l][i] = m.Moduli[l].ReduceSigned(v)
			}
		}
		for l := 0; l < limbs; l++ {
			nttv := append([]uint64(nil), coeffs[l]...)
			m.tables[l].Forward(nttv)
			m.WriteHBM("a."+comp, l, nttv)
		}
		// Host prepares centered last-limb residues per surviving modulus.
		half := qlast.Q >> 1
		for l := 0; l < limbs-1; l++ {
			cent := make([]uint64, n)
			qlModQi := m.Moduli[l].Reduce(qlast.Q)
			for i := 0; i < n; i++ {
				c := m.Moduli[l].Reduce(coeffs[last][i])
				if coeffs[last][i] > half {
					c = m.Moduli[l].Sub(c, qlModQi)
				}
				cent[i] = c
			}
			m.WriteHBM("a."+comp+".last", l, cent)
		}
	}

	// INTT, subtract the host-centered dropped limb, scale by q_last^{-1},
	// NTT back — per surviving limb.
	rescale := perLimb("Rescale", limbs-1, func(b *isa.Builder, comp string, l int) {
		xc := b.Unary(isa.INTT, b.Load("a."+comp, l), l, 0)
		diff := b.Bin(isa.MSub, xc, b.Load("a."+comp+".last", l), l)
		scaled := b.Unary(isa.MMulScalar, diff, l, qlInv[l])
		b.Store("out."+comp, b.Unary(isa.NTT, scaled, l, 0), l)
	})
	if _, err := m.Run(rescale); err != nil {
		t.Fatal(err)
	}
	// The embedded value v rescales to round(v/q_last) ≈ 0 for v < 2^20
	// (q_last is 45 bits), so every output coefficient must be 0 or ±1
	// after INTT.
	for _, comp := range []string{"c0", "c1"} {
		for l := 0; l < limbs-1; l++ {
			out, _ := m.ReadHBM("out."+comp, l)
			coeff := append([]uint64(nil), out...)
			m.tables[l].Inverse(coeff)
			for i, v := range coeff {
				c := m.Moduli[l].Centered(v)
				if c < -1 || c > 1 {
					t.Fatalf("%s limb %d index %d: rescale result %d, want ≈0", comp, l, i, c)
				}
			}
		}
	}
}

func TestScratchpadOverflowDetected(t *testing.T) {
	cfg := arch.U280()
	cfg.ScratchpadMB = 0.001 // 1 KB — too small for any vector
	ps, err := numeric.GenerateNTTPrimes(45, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(cfg, 256, ps)
	if err != nil {
		t.Fatal(err)
	}
	m.WriteHBM("a.c0", 0, make([]uint64, 256))
	b := isa.NewBuilder("overflow")
	b.Load("a.c0", 0)
	if _, err := m.Run(b.Build()); err == nil {
		t.Error("scratchpad overflow should error")
	}
}

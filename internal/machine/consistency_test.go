package machine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"poseidon/internal/arch"
	"poseidon/internal/isa"
	"poseidon/internal/numeric"
)

// The analytic cost model (internal/arch) and the executed ISA programs
// must agree on the work a basic operation performs: same HBM bytes, and
// core cycles within the pipeline-fill constants the analytic model adds.
// HAdd and NTT run as programs the tests build from the executor arms.
func TestModelMatchesMachineHAdd(t *testing.T) {
	logN, limbs := 10, 4
	n := 1 << logN
	ps, err := numeric.GenerateNTTPrimes(45, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.U280()
	m, err := New(cfg, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	model, err := arch.NewModel(cfg, arch.FHEParams{LogN: logN, Limbs: limbs, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}

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
	prof := model.HAdd(limbs)

	if st.HBMBytes != prof.HBMBytes {
		t.Errorf("HBM bytes: machine %.0f, model %.0f", st.HBMBytes, prof.HBMBytes)
	}
	// MA cycles: model adds a pipeline-fill constant; otherwise equal.
	machMA := st.Cycles[isa.MAdd] + st.Cycles[isa.MSub]
	diff := prof.Cycles[arch.MA] - machMA
	if diff < 0 || diff > float64(cfg.PipeMA)+1 {
		t.Errorf("MA cycles: machine %.1f, model %.1f", machMA, prof.Cycles[arch.MA])
	}
}

func TestModelMatchesMachineNTT(t *testing.T) {
	logN, limbs := 10, 3
	n := 1 << logN
	ps, err := numeric.GenerateNTTPrimes(45, logN, limbs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := arch.U280()
	m, err := New(cfg, n, ps)
	if err != nil {
		t.Fatal(err)
	}
	model, err := arch.NewModel(cfg, arch.FHEParams{LogN: logN, Limbs: limbs, Alpha: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	b := isa.NewBuilder("NTT")
	for l := 0; l < limbs; l++ {
		m.WriteHBM("a.m", l, randVec(rng, n, m.Moduli[l].Q))
		b.Store("out.m", b.Unary(isa.NTT, b.Load("a.m", l), l, 0), l)
	}
	st, err := m.Run(b.Build())
	if err != nil {
		t.Fatal(err)
	}
	prof := model.NTTOp(limbs)

	// NTT cycles: passes·elems/lanes on both sides (modulo pipeline fill).
	diff := math.Abs(prof.Cycles[arch.NTT] - st.Cycles[isa.NTT])
	if diff > float64(cfg.PipeNTT)+1 {
		t.Errorf("NTT cycles: machine %.1f, model %.1f", st.Cycles[isa.NTT], prof.Cycles[arch.NTT])
	}
	if st.HBMBytes != prof.HBMBytes {
		t.Errorf("HBM bytes: machine %.0f, model %.0f", st.HBMBytes, prof.HBMBytes)
	}
}

// The analytic cost model and the executed keyswitch program must agree on the work the operation performs: the same HBM
// bytes, and NTT cycles that differ by exactly what the model adds — the
// input INTT the program leaves to its caller and one pipeline fill per
// transform batch. MM and MA cycles are logged, not gated: the model
// charges α·(l+α) RNSconv products per digit and no ModDown y_j, which is
// not the program's count (ROADMAP item 2(b)).
func TestModelMatchesMachineKeySwitch(t *testing.T) {
	for _, c := range []struct{ logN, nq, np, level int }{
		{10, 4, 1, 3}, {10, 6, 2, 5}, {11, 5, 2, 2},
	} {
		t.Run(fmt.Sprintf("logN%d_Q%d_P%d_level%d", c.logN, c.nq, c.np, c.level), func(t *testing.T) {
			n := 1 << c.logN
			qs, err := numeric.GenerateNTTPrimes(45, c.logN, c.nq)
			if err != nil {
				t.Fatal(err)
			}
			ps, err := numeric.GenerateNTTPrimes(46, c.logN, c.np)
			if err != nil {
				t.Fatal(err)
			}
			cfg := arch.U280()
			m, err := New(cfg, n, append(qs, ps...))
			if err != nil {
				t.Fatal(err)
			}
			limbs := c.level + 1
			model, err := arch.NewModel(cfg, arch.FHEParams{LogN: c.logN, Limbs: limbs, Alpha: c.np})
			if err != nil {
				t.Fatal(err)
			}

			rng := rand.New(rand.NewSource(1))
			for l := 0; l < limbs; l++ {
				m.WriteHBM("in", l, randVec(rng, n, m.Moduli[l].Q))
			}
			ks := isa.NewKeySwitchConstants(m.Moduli[:c.nq], m.Moduli[c.nq:], c.level)
			for d := range ks.DigitLo {
				for _, sym := range []string{fmt.Sprintf("key.b%d", d), fmt.Sprintf("key.a%d", d)} {
					for l := range m.Moduli {
						m.WriteHBM(sym, l, randVec(rng, n, m.Moduli[l].Q))
					}
				}
			}
			st, err := m.Run(isa.CompileKeySwitch(ks, "in", "key"))
			if err != nil {
				t.Fatal(err)
			}
			prof := model.Keyswitch(limbs)

			if st.HBMBytes != prof.HBMBytes {
				t.Errorf("HBM bytes: machine %.0f, model %.0f", st.HBMBytes, prof.HBMBytes)
			}
			dnum := len(ks.DigitLo)
			inputINTT := float64(limbs*n*m.plans[0].Passes()) / float64(cfg.Lanes)
			fills := float64((1 + dnum + 4) * cfg.PipeNTT)
			if want := st.Cycles[isa.NTT] + inputINTT + fills; prof.Cycles[arch.NTT] != want {
				t.Errorf("NTT cycles: model %.1f, want machine %.1f + input INTT %.1f + fills %.0f = %.1f",
					prof.Cycles[arch.NTT], st.Cycles[isa.NTT], inputINTT, fills, want)
			}
			t.Logf("HBM %.0f B; NTT cycles machine %.0f / model %.0f; MM %.0f / %.0f; MA %.0f / %.0f",
				st.HBMBytes, st.Cycles[isa.NTT], prof.Cycles[arch.NTT],
				st.Cycles[isa.MMul], prof.Cycles[arch.MM],
				st.Cycles[isa.MAdd]+st.Cycles[isa.MSub], prof.Cycles[arch.MA])
		})
	}
}

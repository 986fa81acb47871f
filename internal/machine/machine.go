// Package machine executes operator-level ISA programs on a functional
// model of the Poseidon datapath: real residue arithmetic through the MA,
// MM and NTT cores, a capacity-checked scratchpad, and an HBM
// traffic/cycle account that matches the analytic model in internal/arch.
// Running a program yields both the correct data and the cost the hardware
// would pay — the executable form of the paper's Fig 2. The program it runs
// is isa.CompileKeySwitch; the tests finish CMult and Rotation around it on
// the host.
package machine

import (
	"fmt"

	"poseidon/internal/arch"
	"poseidon/internal/isa"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
)

// Stats is the temporal account of one program execution.
type Stats struct {
	Cycles       map[isa.Opcode]float64 // busy cycles per opcode class
	HBMBytes     float64
	PeakSpad     int // peak scratchpad bytes in use
	Instructions int
}

// Machine is one datapath instance bound to a modulus chain.
type Machine struct {
	Cfg    arch.Config
	N      int
	Moduli []numeric.Modulus

	tables []*ntt.Table
	plans  []*ntt.FusedPlan

	// hbm[sym][limb] is an off-chip resident vector.
	hbm map[string][][]uint64
}

// New builds a machine of ring degree n over the given NTT-friendly prime
// chain, with the datapath parameters of cfg.
func New(cfg arch.Config, n int, moduli []uint64) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Machine{Cfg: cfg, N: n, hbm: map[string][][]uint64{}}
	for _, q := range moduli {
		tab, err := ntt.NewTable(n, q)
		if err != nil {
			return nil, fmt.Errorf("machine: %w", err)
		}
		m.tables = append(m.tables, tab)
		plan, err := ntt.NewFusedPlan(tab, cfg.FusionK)
		if err != nil {
			return nil, err
		}
		m.plans = append(m.plans, plan)
		m.Moduli = append(m.Moduli, tab.Mod)
	}
	return m, nil
}

// WriteHBM installs (or replaces) an off-chip vector for symbol sym, limb l.
// The data is copied.
func (m *Machine) WriteHBM(sym string, limb int, data []uint64) {
	if len(data) != m.N {
		panic(fmt.Sprintf("machine: vector length %d != N=%d", len(data), m.N))
	}
	vs := m.hbm[sym]
	for len(vs) <= limb {
		vs = append(vs, nil)
	}
	vs[limb] = append([]uint64(nil), data...)
	m.hbm[sym] = vs
}

// ReadHBM returns a copy of an off-chip vector.
func (m *Machine) ReadHBM(sym string, limb int) ([]uint64, error) {
	vs, ok := m.hbm[sym]
	if !ok || limb >= len(vs) || vs[limb] == nil {
		return nil, fmt.Errorf("machine: HBM symbol %q limb %d not present", sym, limb)
	}
	return append([]uint64(nil), vs[limb]...), nil
}

// Run executes a program, returning its cost account. Functional results
// land in HBM via the program's STORE instructions.
func (m *Machine) Run(p *isa.Program) (Stats, error) {
	st := Stats{Cycles: map[isa.Opcode]float64{}}
	regs := make([][]uint64, p.NumReg)
	lanes := float64(m.Cfg.Lanes)
	elems := float64(m.N)
	wordBytes := float64(m.Cfg.LimbBytes)
	live := 0
	touch := func(r isa.Reg) error {
		if int(r) >= len(regs) || regs[r] == nil {
			return fmt.Errorf("machine: read of undefined register r%d", r)
		}
		return nil
	}
	define := func(r isa.Reg, v []uint64) {
		if regs[r] == nil {
			live += m.N * m.Cfg.LimbBytes
			if live > st.PeakSpad {
				st.PeakSpad = live
			}
		}
		regs[r] = v
	}

	spadCap := int(m.Cfg.ScratchpadMB * 1e6)
	for idx, in := range p.Instrs {
		st.Instructions++
		if in.Limb < 0 || in.Limb >= len(m.Moduli) {
			return st, fmt.Errorf("machine: instr %d: limb %d out of range", idx, in.Limb)
		}
		mod := m.Moduli[in.Limb]
		switch in.Op {
		case isa.Load:
			v, err := m.ReadHBM(in.Sym, in.Limb)
			if err != nil {
				return st, fmt.Errorf("machine: instr %d: %w", idx, err)
			}
			define(in.Dst, v)
			st.HBMBytes += elems * wordBytes
			st.Cycles[isa.Load] += elems / lanes
		case isa.Store:
			if err := touch(in.A); err != nil {
				return st, err
			}
			m.WriteHBM(in.Sym, in.Limb, regs[in.A])
			st.HBMBytes += elems * wordBytes
			st.Cycles[isa.Store] += elems / lanes
		case isa.MAdd, isa.MSub, isa.MMul:
			if err := touch(in.A); err != nil {
				return st, err
			}
			if err := touch(in.B); err != nil {
				return st, err
			}
			out := make([]uint64, m.N)
			a, bb := regs[in.A], regs[in.B]
			switch in.Op {
			case isa.MAdd:
				for i := range out {
					out[i] = mod.Add(a[i], bb[i])
				}
			case isa.MSub:
				for i := range out {
					out[i] = mod.Sub(a[i], bb[i])
				}
			case isa.MMul:
				for i := range out {
					out[i] = mod.Mul(a[i], bb[i])
				}
			}
			define(in.Dst, out)
			st.Cycles[in.Op] += elems / lanes
		case isa.MMulScalar:
			if err := touch(in.A); err != nil {
				return st, err
			}
			out := make([]uint64, m.N)
			s := mod.Reduce(in.Imm)
			ss := mod.ShoupConstant(s)
			for i, v := range regs[in.A] {
				out[i] = mod.MulShoup(v, s, ss)
			}
			define(in.Dst, out)
			st.Cycles[isa.MMul] += elems / lanes
		case isa.NTT:
			if err := touch(in.A); err != nil {
				return st, err
			}
			out := append([]uint64(nil), regs[in.A]...)
			m.plans[in.Limb].Forward(out)
			define(in.Dst, out)
			st.Cycles[isa.NTT] += float64(m.plans[in.Limb].Passes()) * elems / lanes
		case isa.INTT:
			if err := touch(in.A); err != nil {
				return st, err
			}
			out := append([]uint64(nil), regs[in.A]...)
			m.tables[in.Limb].Inverse(out)
			define(in.Dst, out)
			st.Cycles[isa.NTT] += float64(m.plans[in.Limb].Passes()) * elems / lanes
		default:
			return st, fmt.Errorf("machine: instr %d: unknown opcode %v", idx, in.Op)
		}
		if st.PeakSpad > spadCap {
			return st, fmt.Errorf("machine: instr %d: scratchpad overflow (%d B > %d B) — program needs tiling",
				idx, st.PeakSpad, spadCap)
		}
	}
	return st, nil
}

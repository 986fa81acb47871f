package arch

// EnergyModel converts operation counts into energy. Per-operation core
// energies are switching-energy estimates for a 16 nm FPGA datapath; HBM
// and scratchpad costs use the standard pJ/bit figures. Memory access
// dominates — the Fig 12 observation — because every basic operation
// streams multi-megabyte ciphertexts.
type EnergyModel struct {
	// Core energies, picojoules per element-operation.
	MApJ   float64
	MMpJ   float64
	NTTpJ  float64 // per element-pass (one fused stage touch)
	AutopJ float64

	// Memory energies, picojoules per byte.
	HBMpJB     float64
	ScratchpJB float64

	// Static power of the powered-on fabric, watts, charged over the
	// operation's wall time.
	StaticW float64
}

// DefaultEnergy returns the calibrated model.
func DefaultEnergy() EnergyModel {
	return EnergyModel{
		MApJ:       0.9,
		MMpJ:       7.5,
		NTTpJ:      9.0,
		AutopJ:     0.6,
		HBMpJB:     56, // 7 pJ/bit
		ScratchpJB: 1.2,
		// Fabric static power attributed to the accelerator datapath; the
		// board-level remainder is excluded so the dynamic breakdown of
		// Fig 12 stays visible.
		StaticW: 3,
	}
}

// Breakdown is energy per contributor, joules.
type Breakdown struct {
	MA, MM, NTT, Auto float64
	HBM               float64
	Static            float64
}

// Total sums all contributors.
func (b Breakdown) Total() float64 {
	return b.MA + b.MM + b.NTT + b.Auto + b.HBM + b.Static
}

// Energy computes the energy of a profile executed on model m.
// Element-operation counts are recovered from busy cycles × lanes.
func (e EnergyModel) Energy(m *Model, p Profile) Breakdown {
	lanes := m.lanes()
	t := m.Latency(p)
	var b Breakdown
	b.MA = p.Cycles[MA] * lanes * e.MApJ * 1e-12
	b.MM = p.Cycles[MM] * lanes * e.MMpJ * 1e-12
	b.NTT = p.Cycles[NTT] * lanes * e.NTTpJ * 1e-12
	auLanes := lanes
	if m.Cfg.Auto == NaiveAutoCore {
		auLanes = 1 // serial core touches one element per cycle
	}
	b.Auto = p.Cycles[Auto] * auLanes * e.AutopJ * 1e-12
	b.HBM = p.HBMBytes * e.HBMpJB * 1e-12
	b.Static = e.StaticW * t
	return b
}

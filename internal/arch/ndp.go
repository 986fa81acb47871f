package arch

// Near-data-processing variant. The paper's discussion section proposes
// deploying Poseidon's operator cores next to bulk storage (e.g. a
// SmartSSD) with an even smaller scratchpad: compute throughput drops (the
// FPGA on a storage device is smaller and slower) but data no longer
// crosses the host memory system, so the energy per moved byte falls
// sharply. This preset models that future-work design point so the
// tradeoff is explorable.

// SmartSSD returns a near-data design point: a storage-attached FPGA with
// 128 lanes at 200 MHz behind a 12 GB/s device-internal link.
func SmartSSD() Config {
	return Config{
		Lanes:         128,
		FusionK:       3,
		FreqMHz:       200,
		HBMGBs:        12, // device-internal bandwidth
		HBMEfficiency: 0.9,
		ScratchpadMB:  2.0,
		LimbBytes:     4,
		Auto:          HFAutoCore,
		PipeMA:        4,
		PipeMM:        18,
		PipeNTT:       32,
		PipeAuto:      16,
	}
}

// NDPEnergy returns the energy model for the near-data variant: moving a
// byte inside the device costs ~6× less than crossing HBM + host DRAM.
func NDPEnergy() EnergyModel {
	e := DefaultEnergy()
	e.HBMpJB = 9
	e.StaticW = 6
	return e
}

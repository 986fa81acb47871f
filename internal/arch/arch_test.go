package arch

import (
	"math"
	"testing"
)

func testModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewModel(U280(), PaperParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The roofline reads HBM as one flat rate, HBMGBs × HBMEfficiency. At U280
// the peak is the paper's memory system: 2 stacks × 16 channels × 64 bits
// at 1.8 Gbps a pin is 460.8 GB/s.
func TestU280HBMGeometry(t *testing.T) {
	cfg := U280()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	const peakGBs = 2 * 16 * 64 / 8 * 1.8
	if math.Abs(cfg.HBMGBs-peakGBs) > 1 {
		t.Errorf("config peak %.1f GB/s, want ≈ %.1f", cfg.HBMGBs, peakGBs)
	}
}

// Streaming reaches 85 % of the peak, and EffectiveHBM is that product.
func TestConfigMatchesGeometry(t *testing.T) {
	cfg := U280()
	if cfg.HBMEfficiency != 0.85 {
		t.Errorf("config efficiency %.2f, want 0.85", cfg.HBMEfficiency)
	}
	if want := cfg.HBMGBs * 1e9 * 0.85; math.Abs(cfg.EffectiveHBM()-want) > 1 {
		t.Errorf("effective bandwidth %.4g B/s, want %.4g", cfg.EffectiveHBM(), want)
	}
}

func TestConfigValidate(t *testing.T) {
	good := U280()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Lanes = 100
	if bad.Validate() == nil {
		t.Error("non-power-of-two lanes should fail")
	}
	bad = good
	bad.FusionK = 9
	if bad.Validate() == nil {
		t.Error("k out of range should fail")
	}
	bad = good
	bad.LimbBytes = 3
	if bad.Validate() == nil {
		t.Error("odd limb width should fail")
	}
	bad = good
	bad.FreqMHz = 0
	if bad.Validate() == nil {
		t.Error("zero frequency should fail")
	}
}

func TestNewModelRejectsBadParams(t *testing.T) {
	if _, err := NewModel(U280(), FHEParams{LogN: 2, Limbs: 1, Alpha: 1}); err == nil {
		t.Error("tiny LogN should fail")
	}
	if _, err := NewModel(U280(), FHEParams{LogN: 16, Limbs: 0, Alpha: 1}); err == nil {
		t.Error("zero limbs should fail")
	}
}

func TestDnum(t *testing.T) {
	p := FHEParams{LogN: 16, Limbs: 45, Alpha: 4}
	if got := p.Dnum(45); got != 12 {
		t.Errorf("Dnum(45)=%d want 12", got)
	}
	if got := p.Dnum(4); got != 1 {
		t.Errorf("Dnum(4)=%d want 1", got)
	}
	if got := p.Dnum(5); got != 2 {
		t.Errorf("Dnum(5)=%d want 2", got)
	}
}

// Simple ops must be memory-bound, complex ops compute-bound — the Table
// VII observation that simple operations consume the most bandwidth.
func TestBandwidthCharacter(t *testing.T) {
	m := testModel(t)
	l := m.Params.Limbs

	hadd := m.HAdd(l)
	if u := m.BandwidthUtilization(hadd); u < 0.7 {
		t.Errorf("HAdd bandwidth utilization %.2f, want ≥ 0.7 (memory-bound)", u)
	}
	ks := m.Keyswitch(l)
	if u := m.BandwidthUtilization(ks); u > 0.8 {
		t.Errorf("Keyswitch bandwidth utilization %.2f, want < 0.8 (compute-heavy)", u)
	}
	rs := m.Rescale(l)
	if m.BandwidthUtilization(rs) >= m.BandwidthUtilization(hadd) {
		t.Error("Rescale should utilize less bandwidth than HAdd")
	}
}

// Latency ordering must match the paper: HAdd < PMult < Rescale < Rotation
// ≈ Keyswitch < CMult (Table IV inverse throughput).
func TestLatencyOrdering(t *testing.T) {
	m := testModel(t)
	l := m.Params.Limbs
	tHAdd := m.Latency(m.HAdd(l))
	tPMult := m.Latency(m.PMult(l))
	tRescale := m.Latency(m.Rescale(l))
	tKS := m.Latency(m.Keyswitch(l))
	tRot := m.Latency(m.Rotation(l))
	tCMult := m.Latency(m.CMult(l))

	// HAdd and PMult are both memory-bound streamers; HAdd moves slightly
	// more bytes (two full ciphertexts in) so they sit within 2× of each
	// other at the bottom of the ordering.
	if tHAdd > 2*tPMult || tPMult > 2*tHAdd {
		t.Errorf("HAdd (%.3g) and PMult (%.3g) should be comparable", tHAdd, tPMult)
	}
	if !(tPMult < tRescale) {
		t.Errorf("PMult (%.3g) should be < Rescale (%.3g)", tPMult, tRescale)
	}
	if !(tRescale < tKS) {
		t.Errorf("Rescale (%.3g) should be < Keyswitch (%.3g)", tRescale, tKS)
	}
	if !(tKS <= tRot) {
		t.Errorf("Keyswitch (%.3g) should be ≤ Rotation (%.3g)", tKS, tRot)
	}
	if !(tRot <= tCMult*1.2) {
		t.Errorf("Rotation (%.3g) should be ≈≤ CMult (%.3g)", tRot, tCMult)
	}
}

// The naive automorphism core must slow Rotation by roughly an order of
// magnitude (Table IX ablation).
func TestNaiveAutoAblation(t *testing.T) {
	cfg := U280()
	hf, _ := NewModel(cfg, PaperParams())
	cfg.Auto = NaiveAutoCore
	nv, _ := NewModel(cfg, PaperParams())
	l := hf.Params.Limbs

	tHF := hf.Latency(hf.AutomorphismOp(l))
	tNV := nv.Latency(nv.AutomorphismOp(l))
	ratio := tNV / tHF
	if ratio < 5 {
		t.Errorf("naive automorphism only %.1f× slower; expected ≫5×", ratio)
	}
}

// Lane scaling: performance improves with lanes but saturates against the
// bandwidth wall (Fig 11).
func TestLaneScalingSaturates(t *testing.T) {
	params := PaperParams()
	var prev float64
	var speedups []float64
	base := 0.0
	// A benchmark-like mix: memory-bound streamers saturate against the
	// bandwidth wall while the compute-bound ops keep scaling.
	mix := func(m *Model) float64 {
		l := params.Limbs
		return m.Latency(m.CMult(l)) + 10*m.Latency(m.HAdd(l)) +
			10*m.Latency(m.PMult(l)) + m.Latency(m.Rotation(l))
	}
	for _, lanes := range []int{64, 128, 256, 512} {
		cfg := U280()
		cfg.Lanes = lanes
		m, err := NewModel(cfg, params)
		if err != nil {
			t.Fatal(err)
		}
		tt := mix(m)
		if base == 0 {
			base = tt
		}
		if prev != 0 && tt > prev {
			t.Errorf("lanes=%d: latency increased (%.3g > %.3g)", lanes, tt, prev)
		}
		prev = tt
		speedups = append(speedups, base/tt)
	}
	// Speedup from 64→128 must exceed speedup from 256→512 (saturation).
	early := speedups[1] / speedups[0]
	late := speedups[3] / speedups[2]
	if late >= early {
		t.Errorf("lane scaling should saturate: early gain %.2f×, late gain %.2f×", early, late)
	}
}

// Fusion sweep: resources and NTT time must both show the k=3 inflection
// (Fig 10).
func TestFusionInflectionAtK3(t *testing.T) {
	cr := NewCoreResources(U280(), 16)
	lutMin, lutArg := math.MaxFloat64, 0
	timeMin, timeArg := math.MaxFloat64, 0
	for k := 1; k <= 6; k++ {
		r := cr.NTTCoresAtK(k)
		if float64(r.LUT) < lutMin {
			lutMin, lutArg = float64(r.LUT), k
		}
		tm := cr.NTTTimeAtK(k)
		if tm < timeMin {
			timeMin, timeArg = tm, k
		}
	}
	if lutArg != 3 {
		t.Errorf("LUT minimum at k=%d, want 3", lutArg)
	}
	if timeArg != 3 && timeArg != 4 {
		t.Errorf("NTT time minimum at k=%d, want 3 (or 4)", timeArg)
	}
}

func TestResourcesFitU280(t *testing.T) {
	cr := NewCoreResources(U280(), 16)
	total := cr.Total()
	util := total.Utilization()
	for prim, u := range util {
		if u <= 0 || u >= 1 {
			t.Errorf("%s utilization %.2f outside (0,1)", prim, u)
		}
	}
	// DSP should be the most-used primitive (the paper: "Poseidon consumes
	// more DSPs").
	if util["DSP"] <= util["LUT"] || util["DSP"] <= util["BRAM"] {
		t.Errorf("DSP should dominate utilization: %+v", util)
	}
}

func TestAutoCoreResourceAblation(t *testing.T) {
	cfgHF := U280()
	crHF := NewCoreResources(cfgHF, 16)
	cfgNV := U280()
	cfgNV.Auto = NaiveAutoCore
	crNV := NewCoreResources(cfgNV, 16)

	hf := crHF.AutoCores()
	nv := crNV.AutoCores()
	if hf.LUT <= nv.LUT || hf.FF <= nv.FF {
		t.Error("HFAuto must cost more resources than the naive core")
	}
	// Latency flips the other way (Table VIII).
	n := 1 << 16
	if crHF.AutoLatencyCycles(n) >= crNV.AutoLatencyCycles(n) {
		t.Error("HFAuto must be faster than the naive core")
	}
	if got := crHF.AutoLatencyCycles(n); got != 512 {
		t.Errorf("HFAuto latency for N=2^16 at C=512: %d cycles, want 512", got)
	}
}

// Energy: memory access must dominate; among cores, MM and NTT must lead
// (Fig 12).
func TestEnergyBreakdownShape(t *testing.T) {
	m := testModel(t)
	e := DefaultEnergy()
	p := m.CMult(m.Params.Limbs)
	b := e.Energy(m, p)
	total := b.Total()
	if b.HBM < 0.3*total {
		t.Errorf("HBM energy share %.2f, expected dominant", b.HBM/total)
	}
	if b.MM+b.NTT < b.MA+b.Auto {
		t.Error("MM+NTT should dominate core energy")
	}
}

// Shares must sum to 1 and reflect the op structure: HAdd is all MA+Mem,
// PMult all MM+Mem, Rotation includes every family.
func TestShares(t *testing.T) {
	m := testModel(t)
	l := m.Params.Limbs
	for _, p := range []Profile{m.HAdd(l), m.PMult(l), m.CMult(l), m.Rotation(l), m.Rescale(l), m.Keyswitch(l)} {
		s := m.Shares(p)
		sum := 0.0
		for _, v := range s {
			if v < -1e-9 {
				t.Errorf("%s: negative share", p.Name)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: shares sum to %.4f", p.Name, sum)
		}
	}
	hadd := m.Shares(m.HAdd(l))
	if hadd[MM] != 0 || hadd[NTT] != 0 || hadd[Auto] != 0 {
		t.Error("HAdd should only use MA and Mem")
	}
	rot := m.Shares(m.Rotation(l))
	if rot[Auto] == 0 || rot[NTT] == 0 || rot[MM] == 0 || rot[MA] == 0 {
		t.Error("Rotation should exercise all four operator families")
	}
}

// Throughput sanity: the model must land within an order of magnitude of
// the paper's Poseidon column in Table IV.
func TestTableIVBallpark(t *testing.T) {
	m := testModel(t)
	l := m.Params.Limbs
	cases := []struct {
		name  string
		prof  Profile
		paper float64 // ops/s from Table IV
	}{
		{"PMult", m.PMult(l), 13310},
		{"CMult", m.CMult(l), 273},
		{"Keyswitch", m.Keyswitch(l), 312},
		{"Rotation", m.Rotation(l), 302},
		{"Rescale", m.Rescale(l), 3948},
	}
	for _, c := range cases {
		got := 1 / m.Latency(c.prof)
		ratio := got / c.paper
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: model %.0f op/s vs paper %.0f op/s (ratio %.2f) — out of band",
				c.name, got, c.paper, ratio)
		}
	}
}

package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"poseidon/internal/arch"
	"poseidon/internal/automorph"
	"poseidon/internal/baseline"
	"poseidon/internal/ckks"
	"poseidon/internal/isa"
	"poseidon/internal/machine"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
	"poseidon/internal/rns"
	"poseidon/internal/telemetry"
	"poseidon/internal/workloads"
)

// Layer microbenchmarks: each times calls into one module's public
// functions from the outside, on the rung of the workload being traced.

const (
	microRounds = 7 // timed batches per microbenchmark; the median is reported
	pairRounds  = 5 // A/B pairs for an overhead percentage
)

// microBatch is how long one timed batch of a microbenchmark lasts; -smoke
// shortens it.
var microBatch = 8 * time.Millisecond

// timeCall returns the median time of one call of fn, in nanoseconds. The
// first call is untimed (tables, arena free lists), the second sizes the
// batches.
func timeCall(fn func()) float64 {
	fn()
	t0 := time.Now()
	fn()
	iters := 1
	if one := time.Since(t0); one < microBatch {
		iters = int(microBatch/(one+1)) + 1
	}
	times := make([]float64, microRounds)
	for r := range times {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		times[r] = float64(time.Since(t0)) / float64(iters)
	}
	return median(times)
}

// overheadPct times with() and without() in back-to-back pairs and returns
// the median pair's percentage difference.
func overheadPct(with, without func()) float64 {
	with()
	without()
	a := make([]float64, pairRounds)
	b := make([]float64, pairRounds)
	for i := range a {
		t0 := time.Now()
		with()
		a[i] = float64(time.Since(t0))
		t0 = time.Now()
		without()
		b[i] = float64(time.Since(t0))
	}
	return 100 * (pairedMedianRatio(a, b) - 1)
}

// allocsPerOp is heap allocations per call of fn, after one warm-up call.
func allocsPerOp(fn func(), runs int) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

type layerSink map[string]float64

func randResidues(rng *rand.Rand, n int, q uint64) []uint64 {
	v := make([]uint64, n)
	for i := range v {
		v[i] = rng.Uint64() % q
	}
	return v
}

func randLimbs(rng *rand.Rand, n int, mods []numeric.Modulus) [][]uint64 {
	m := make([][]uint64, len(mods))
	for i, mod := range mods {
		m[i] = randResidues(rng, n, mod.Q)
	}
	return m
}

func randPoly(rng *rand.Rand, r *ring.Ring, limbs int) *ring.Poly {
	p := r.NewPoly(limbs)
	for i := range p.Coeffs {
		copy(p.Coeffs[i], randResidues(rng, r.N, r.Moduli[i].Q))
	}
	return p
}

// layersNTT times one limb's transforms through the ring's default
// dispatch; tag is "n13" or "n9".
func layersNTT(out layerSink, rng *rand.Rand, rq *ring.Ring, tag string) {
	c := randResidues(rng, rq.N, rq.Moduli[0].Q)
	out["ntt.fwd."+tag+".us"] = timeCall(func() { rq.ForwardLimb(0, c) }) / 1e3
	out["ntt.inv."+tag+".us"] = timeCall(func() { rq.InverseLimb(0, c) }) / 1e3
}

// layersRingNTT times a whole-polynomial forward transform at 1 and 2
// workers; tag is "p13" or "b9".
func layersRingNTT(out layerSink, rng *rand.Rand, rq *ring.Ring, tag string) {
	p := randPoly(rng, rq, len(rq.Moduli))
	for _, w := range []int{1, 2} {
		pool := ring.NewPool(w)
		out[fmt.Sprintf("ring.ntt_poly.%s.w%d.us", tag, w)] = timeCall(func() {
			p.IsNTT = false
			rq.NTTParallel(p, pool)
		}) / 1e3
	}
}

// layersKernelsP13 covers numeric, ntt, automorph, rns and ring on P13.
func layersKernelsP13(out layerSink, rng *rand.Rand, params *ckks.Parameters) error {
	rq, rp := params.RingQ, params.RingP
	n, mod := rq.N, rq.Moduli[0]
	perCoeff := func(fn func()) float64 { return timeCall(fn) / float64(n) }

	a, b, c := randResidues(rng, n, mod.Q), randResidues(rng, n, mod.Q), make([]uint64, n)
	a1 := randResidues(rng, n, mod.Q)
	hi0, lo0, hi1, lo1 := make([]uint64, n), make([]uint64, n), make([]uint64, n), make([]uint64, n)
	out["numeric.vec_montmul.ns_per_coeff"] = perCoeff(func() { mod.VecMontMul(c, a, b) })
	out["numeric.vec_macwide.ns_per_coeff"] = perCoeff(func() { numeric.VecMACWide(hi0, lo0, a, b) })
	out["numeric.vec_macwide_pair.ns_per_coeff"] = perCoeff(func() { numeric.VecMACWidePair(hi0, lo0, hi1, lo1, a, a1, b) })
	out["numeric.vec_reducewide.ns_per_coeff"] = perCoeff(func() { mod.VecReduceWide(c, hi0, lo0) })

	layersNTT(out, rng, rq, "n13")
	fwd, err := ntt.NewFusedPlan(rq.Tables[0], 3)
	if err != nil {
		return err
	}
	inv, err := ntt.NewInverseFusedPlan(rq.Tables[0], 3)
	if err != nil {
		return err
	}
	out["ntt.fused_k3.fwd.n13.us"] = timeCall(func() { fwd.Forward(a) }) / 1e3
	out["ntt.fused_k3.inv.n13.us"] = timeCall(func() { inv.Inverse(a) }) / 1e3
	// Counts for the kernel the default dispatch selects: plain radix-2
	// sweeps the vector once per stage, a fused plan once per k stages.
	var st ntt.Stats
	passes := float64(rq.LogN)
	if k := rq.FusionDegree(); k == 0 {
		rq.Tables[0].ForwardWithStats(a, &st)
	} else {
		plan, err := ntt.NewFusedPlan(rq.Tables[0], k)
		if err != nil {
			return err
		}
		plan.ForwardCounted(a, &st)
		passes = float64(st.FusedPasses)
	}
	out["ntt.fwd.n13.mults"] = float64(st.Mults)
	out["ntt.fwd.n13.passes"] = passes
	// Computed, not measured: each pass reads and writes all N words.
	out["ntt.fwd.n13.computed_gbps"] = passes * 2 * 8 * float64(n) / (out["ntt.fwd.n13.us"] * 1e3)

	g := automorph.GaloisElementForRotation(1, n)
	hf := rq.HF.Get(g)
	out["automorph.hfauto.n13.us"] = timeCall(func() { hf.Apply(c, a, mod) }) / 1e3
	out["automorph.naive.n13.us"] = timeCall(func() { automorph.Naive(c, a, g, mod) }) / 1e3

	top := params.MaxLevel()
	dec := rns.NewDecomposer(rq.Moduli, rp.Moduli, params.Alpha())
	inQ := randLimbs(rng, n, rq.Moduli)
	ext := randLimbs(rng, n, append(append([]numeric.Modulus{}, rq.Moduli...), rp.Moduli...))
	out["rns.modup_digit.p13.us"] = timeCall(func() { dec.DecomposeAndExtend(top, 0, inQ, ext) }) / 1e3
	layersModDown(out, rng, params, "p13")
	resc := rns.NewRescaler(rq.Moduli)
	down := randLimbs(rng, n, rq.Moduli[:top])
	out["rns.rescale.p13.us"] = timeCall(func() { resc.Rescale(down, inQ) }) / 1e3

	layersRingNTT(out, rng, rq, "p13")
	pa, pb, pc := randPoly(rng, rq, top+1), randPoly(rng, rq, top+1), rq.NewPoly(top+1)
	pa.IsNTT, pb.IsNTT = true, true
	out["ring.mul_coeffwise.p13.us"] = timeCall(func() { rq.MulCoeffwise(pc, pa, pb) }) / 1e3
	return nil
}

// layersModDown times one full-level Q·P → Q ModDown; tag is "p13" or "b9".
func layersModDown(out layerSink, rng *rand.Rand, params *ckks.Parameters, tag string) {
	rq, rp := params.RingQ, params.RingP
	md := rns.NewModDownParams(rq.Moduli, rp.Moduli)
	aQ, aP := randLimbs(rng, rq.N, rq.Moduli), randLimbs(rng, rq.N, rp.Moduli)
	dst := randLimbs(rng, rq.N, rq.Moduli)
	out["rns.moddown."+tag+".us"] = timeCall(func() { md.ModDown(dst, aQ, aP) }) / 1e3
}

// layersCkksP13 times the evaluator's basic ops at the P13 top level, Into
// forms, one worker, plus the ISA machine and the model's view of a
// keyswitch beside the measured one.
func layersCkksP13(out layerSink, seed int64, params *ckks.Parameters) error {
	kgen := ckks.NewKeyGenerator(params, seed)
	sk := kgen.GenSecretKey()
	pk := kgen.GenPublicKey(sk)
	rlk := kgen.GenRelinearizationKey(sk)
	rtk := kgen.GenRotationKeys(sk, []int{1}, false)
	ev := ckks.NewEvaluator(params, rlk, rtk).WithWorkers(1)
	enc := ckks.NewEncoder(params)
	encr := ckks.NewEncryptor(params, pk, seed+1)
	decr := ckks.NewDecryptor(params, sk)

	top := params.MaxLevel()
	z := unitCircle(rand.New(rand.NewSource(seed)), params.Slots, 1)
	pt := enc.Encode(z, top, params.Scale)
	ct1, ct2 := encr.Encrypt(pt), encr.Encrypt(pt)
	dst, low := ckks.NewCiphertext(params, top), ckks.NewCiphertext(params, top)
	swk := rtk.Keys[automorph.GaloisElementForRotation(1, params.N)]
	us := func(name string, fn func()) { out["ckks."+name+".us"] = timeCall(fn) / 1e3 }

	us("add", func() { ev.AddInto(dst, ct1, ct2) })
	us("mulplain", func() { ev.MulPlainInto(dst, ct1, pt) })
	us("mulrelin", func() { ev.MulRelinInto(dst, ct1, ct2) })
	us("rescale", func() { ev.RescaleInto(low, ct1) })
	us("rotate", func() { ev.RotateInto(dst, ct1, 1) })
	us("keyswitch", func() { ev.KeySwitchInto(dst, ct1, swk) })
	us("hoist", func() { ev.Hoist(ct1).Release() })
	h := ev.Hoist(ct1)
	us("hoisted_rotate", func() { h.Rotate(1) })
	h.Release()
	us("encode", func() { enc.Encode(z, top, params.Scale) })
	us("decode", func() { enc.Decode(pt) })
	us("encrypt", func() { encr.Encrypt(pt) })
	us("decrypt", func() { decr.Decrypt(ct1) })

	model, err := arch.NewModel(arch.U280(), arch.FHEParams{LogN: params.LogN, Limbs: top + 1, Alpha: params.Alpha()})
	if err != nil {
		return err
	}
	modeledUs := model.Latency(model.Keyswitch(top+1)) * 1e6
	out["ckks.measured_over_modeled.keyswitch"] = out["ckks.keyswitch.us"] / modeledUs
	hostMs, err := machineKeySwitchMs(rand.New(rand.NewSource(seed)), params)
	if err != nil {
		return err
	}
	out["machine.keyswitch.host_ms"] = hostMs
	return nil
}

// machineKeySwitchMs runs the compiled keyswitch program on the ISA machine
// over real residues with synthetic key digits and returns the host time.
func machineKeySwitchMs(rng *rand.Rand, params *ckks.Parameters) (float64, error) {
	lq, n, level := len(params.Q), params.N, params.MaxLevel()
	chain := append(append([]uint64{}, params.Q...), params.P...)
	// The untiled P13 program needs a few KB more than the paper's 8.6 MB
	// scratchpad; what is timed here is the host, not the capacity check.
	cfg := arch.U280()
	cfg.ScratchpadMB *= 2
	m, err := machine.New(cfg, n, chain)
	if err != nil {
		return 0, err
	}
	for l := 0; l <= level; l++ {
		m.WriteHBM("in", l, randResidues(rng, n, m.Moduli[l].Q))
	}
	ks := isa.NewKeySwitchConstants(m.Moduli[:lq], m.Moduli[lq:], level)
	for d := range ks.DigitLo {
		for _, sym := range []string{fmt.Sprintf("key.b%d", d), fmt.Sprintf("key.a%d", d)} {
			for l := range chain {
				m.WriteHBM(sym, l, randResidues(rng, n, m.Moduli[l].Q))
			}
		}
	}
	prog := isa.CompileKeySwitch(ks, "in", "key")
	var runErr error
	ns := timeCall(func() {
		if _, err := m.Run(prog); err != nil {
			runErr = err
		}
	})
	return ns / 1e6, runErr
}

// layersB9 covers the transforms and ModDown at the bootstrap rung.
func layersB9(out layerSink, rng *rand.Rand, params *ckks.Parameters) {
	layersNTT(out, rng, params.RingQ, "n9")
	layersModDown(out, rng, params, "b9")
	layersRingNTT(out, rng, params.RingQ, "b9")
}

// layersArch simulates the paper's four benchmarks on the U280 model. The
// figures are simulated time: deterministic, and marked exact.
func layersArch(out layerSink) error {
	model, err := arch.NewModel(arch.U280(), arch.PaperParams())
	if err != nil {
		return err
	}
	em := arch.DefaultEnergy()
	spec := workloads.PaperSpec()
	paper := map[string]float64{}
	for _, row := range baseline.TableVIReported() {
		if row.Platform == "Poseidon (FPGA)" {
			paper[row.Benchmark] = row.Millis
		}
	}
	traces := workloads.All(spec)
	short := map[string]string{"LR": "lr", "LSTM": "lstm", "ResNet-20": "resnet20", "PackedBootstrapping": "packed_boot"}
	for _, tr := range traces {
		key, ok := short[tr.Name]
		if !ok {
			return fmt.Errorf("arch: unexpected workload trace %q", tr.Name)
		}
		ms := arch.Simulate(model, em, tr).TotalTime * 1e3
		out["arch.sim_ms."+key] = ms
		out["arch.paper_err_pct."+key] = 100 * math.Abs(ms-paper[tr.Name]) / paper[tr.Name]
	}
	out["arch.simulate_host_ms"] = timeCall(func() {
		for _, tr := range traces {
			arch.Simulate(model, em, tr)
		}
	}) / 1e6
	return nil
}

// chainFeatureCosts prices two opt-in features on the cmult_chain program:
// integrity guards (on the Try surface, the one that honours them) and an
// installed telemetry collector.
func chainFeatureCosts(out layerSink, c *chainInst) {
	try := func() {
		cur := c.inputs[0]
		for l := c.params.MaxLevel(); l >= 1; l-- {
			if _, err := c.ev.TryMulRelinInto(c.prod[l], cur, cur); err != nil {
				panic(err)
			}
			if _, err := c.ev.TryRescaleInto(c.down[l-1], c.prod[l]); err != nil {
				panic(err)
			}
			cur = c.down[l-1]
		}
	}
	out["ckks.guard_overhead_pct"] = overheadPct(
		func() { c.ev.EnableGuards(1); try(); c.ev.DisableGuards() },
		try,
	)
	plain := func() { c.op(nil, 0) }
	col := telemetry.NewCollector("bench")
	out["ckks.observer_overhead_pct"] = overheadPct(
		func() { c.ev.SetObserver(col); plain(); c.ev.SetObserver(nil) },
		plain,
	)
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"poseidon/internal/ckks"
	"poseidon/internal/ntt"
	"poseidon/internal/numeric"
	"poseidon/internal/ring"
)

func init() {
	register("benchkernels", "strict vs lazy vs fused kernel microbenchmarks + NTT k-sweep, emitted as JSON", runBenchKernels)
}

// kernelBench is one timed configuration in BENCH_kernels.json.
type kernelBench struct {
	Name    string  `json:"name"`    // forward_ntt, inverse_ntt, mul_elementwise, keyswitch
	Mode    string  `json:"mode"`    // strict (reference), lazy (radix-2 production), fused-k<K>
	Workers int     `json:"workers"` // limb-parallel worker count (1 for scalar kernels)
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int     `json:"iterations"`
}

// hostContext records where the numbers were taken, so perf trajectories
// across machines are interpretable.
type hostContext struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOAMD64    string `json:"goamd64,omitempty"` // microarch level env, if set
	CPU        string `json:"cpu"`               // /proc/cpuinfo model name (best effort)
	CPUFlags   string `json:"cpu_flags,omitempty"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// sweepEntry is one fusion degree of the Fig-10 k-sweep: measured ns/op for
// the fused forward/inverse transforms next to the modeled per-block Table II
// costs, so the measured inflection can be read against the paper's model.
type sweepEntry struct {
	K              int     `json:"k"`
	Passes         int     `json:"passes"` // ceil(logN/k) memory passes
	ForwardNs      float64 `json:"forward_ns_per_op"`
	InverseNs      float64 `json:"inverse_ns_per_op"`
	ForwardSpeedup float64 `json:"forward_speedup_vs_lazy"`
	InverseSpeedup float64 `json:"inverse_speedup_vs_lazy"`

	// Modeled per-2^k-block costs from the paper's Table II (the hardware
	// TAM tradeoff; the software kernel's arithmetic matches the unfused
	// column while its reduction slots scale with passes).
	ModelFusedTwiddles   int `json:"model_fused_twiddles"`
	ModelFusedMults      int `json:"model_fused_mults"`
	ModelFusedReductions int `json:"model_fused_reductions"`
	ModelUnfusedMults    int `json:"model_unfused_mults"`
}

// kernelReport is the BENCH_kernels.json schema.
type kernelReport struct {
	GeneratedBy string      `json:"generated_by"`
	Host        hostContext `json:"host"`
	LogN        int         `json:"log_n"`
	N           int         `json:"n"`
	ModulusBits int         `json:"modulus_bits"`

	// Dispatch documents the kernel-selection order and the sweep-selected
	// fusion degree the production dispatch should run at.
	Dispatch       string `json:"dispatch"`
	FusionSelected int    `json:"fusion_selected"`
	Inflection     bool   `json:"inflection"` // some k beats both neighbors

	Sweep      []sweepEntry      `json:"k_sweep"`
	Benchmarks []kernelBench     `json:"benchmarks"`
	Speedups   map[string]string `json:"speedups"`
}

// readHostContext fills the host block; /proc/cpuinfo fields are best-effort
// (absent on non-Linux hosts).
func readHostContext() hostContext {
	h := hostContext{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOAMD64:    os.Getenv("GOAMD64"),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		interesting := map[string]bool{
			"sse4_2": true, "avx": true, "avx2": true, "avx512f": true,
			"bmi2": true, "adx": true, "neon": true, "sve": true,
		}
		for _, line := range strings.Split(string(blob), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "model name":
				if h.CPU == "" {
					h.CPU = v
				}
			case "flags", "Features":
				if h.CPUFlags == "" {
					var have []string
					for _, fl := range strings.Fields(v) {
						if interesting[fl] {
							have = append(have, fl)
						}
					}
					h.CPUFlags = strings.Join(have, " ")
				}
			}
		}
	}
	if h.CPU == "" {
		h.CPU = "unknown"
	}
	return h
}

// runBenchKernels times the strict reference kernels, the lazy radix-2
// production kernels, and the fused radix-2^k plans on identical inputs —
// forward/inverse NTT (with a full k=1..6 sweep reproducing the Fig-10
// inflection), elementwise multiplication, and the keyswitch pipeline — and
// writes the results to a machine-readable JSON file. All kernel families
// produce bit-identical outputs (proved by the differential suites); this
// reports what laziness and fusion buy in time. With -gate, the run fails
// unless the fused forward AND inverse NTT beat the lazy radix-2 kernels by
// the ROADMAP floor (1.5×) at the sweep-selected k, and the sweep shows a
// measured inflection (some k strictly beats both neighbors).
func runBenchKernels(fs *flag.FlagSet, args []string) error {
	logN := fs.Int("logn", 13, "ring degree log2 for the NTT/elementwise kernels")
	out := fs.String("o", "BENCH_kernels.json", "output path ('-' for stdout)")
	gate := fs.Bool("gate", false, "fail unless fused fwd+inv NTT ≥1.5x lazy at the selected k, with a sweep inflection")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := 1 << uint(*logN)

	rep := kernelReport{
		GeneratedBy: "poseidon benchkernels",
		Host:        readHostContext(),
		LogN:        *logN,
		N:           n,
		ModulusBits: 59,
		Speedups:    map[string]string{},
	}

	qs, err := numeric.GenerateNTTPrimes(59, *logN, 1)
	if err != nil {
		return err
	}
	tab, err := ntt.NewTable(n, qs[0])
	if err != nil {
		return err
	}

	// Scalar transform kernels: one limb, workers=1 by construction.
	data := make([]uint64, n)
	for i := range data {
		data[i] = uint64(i) * 2654435761 % qs[0]
	}
	buf := make([]uint64, n)
	time := func(f func()) (float64, int) {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N), r.N
	}
	add := func(name, mode string, workers int, f func()) float64 {
		ns, iters := time(f)
		rep.Benchmarks = append(rep.Benchmarks, kernelBench{
			Name: name, Mode: mode, Workers: workers, NsPerOp: ns, Iters: iters,
		})
		return ns
	}
	add("forward_ntt", "strict", 1, func() { copy(buf, data); tab.ForwardStrict(buf) })
	lazyFwd := add("forward_ntt", "lazy", 1, func() { copy(buf, data); tab.Forward(buf) })
	add("inverse_ntt", "strict", 1, func() { copy(buf, data); tab.InverseStrict(buf) })
	lazyInv := add("inverse_ntt", "lazy", 1, func() { copy(buf, data); tab.Inverse(buf) })

	// The Fig-10 k-sweep: fused forward/inverse at every degree, measured
	// against the lazy radix-2 baseline and laid beside the modeled Table II
	// per-block costs.
	for k := 1; k <= 6; k++ {
		fwd, err := ntt.NewFusedPlan(tab, k)
		if err != nil {
			return err
		}
		inv, err := ntt.NewInverseFusedPlan(tab, k)
		if err != nil {
			return err
		}
		mode := fmt.Sprintf("fused-k%d", k)
		fns := add("forward_ntt", mode, 1, func() { copy(buf, data); fwd.Forward(buf) })
		ins := add("inverse_ntt", mode, 1, func() { copy(buf, data); inv.Inverse(buf) })
		model := ntt.FusedBlockCosts(k)
		rep.Sweep = append(rep.Sweep, sweepEntry{
			K:                    k,
			Passes:               fwd.Passes(),
			ForwardNs:            fns,
			InverseNs:            ins,
			ForwardSpeedup:       lazyFwd / fns,
			InverseSpeedup:       lazyInv / ins,
			ModelFusedTwiddles:   model.Twiddles,
			ModelFusedMults:      model.Mults,
			ModelFusedReductions: model.Reductions,
			ModelUnfusedMults:    ntt.UnfusedBlockCosts(k).Mults,
		})
	}

	// Sweep-select k by combined forward+inverse time, and check for a
	// measured inflection: some k strictly faster than both neighbors.
	total := func(e sweepEntry) float64 { return e.ForwardNs + e.InverseNs }
	best := 0
	for i := range rep.Sweep {
		if total(rep.Sweep[i]) < total(rep.Sweep[best]) {
			best = i
		}
	}
	sel := rep.Sweep[best]
	rep.FusionSelected = sel.K
	rep.Dispatch = fmt.Sprintf("fused(k=%d) by default; sweep selects k=%d; strict and lazy radix-2 by toggle", ntt.DefaultFusionDegree, sel.K)
	for i := 1; i < len(rep.Sweep)-1; i++ {
		if total(rep.Sweep[i]) < total(rep.Sweep[i-1]) && total(rep.Sweep[i]) < total(rep.Sweep[i+1]) {
			rep.Inflection = true
			break
		}
	}
	rep.Speedups[fmt.Sprintf("forward_ntt fused-k%d vs lazy", sel.K)] = fmt.Sprintf("%.2fx", sel.ForwardSpeedup)
	rep.Speedups[fmt.Sprintf("inverse_ntt fused-k%d vs lazy", sel.K)] = fmt.Sprintf("%.2fx", sel.InverseSpeedup)

	// Elementwise multiplication: Barrett reference vs the vector Montgomery
	// path, through the ring dispatcher the encoder/encryptor/evaluator use.
	rq, err := ring.NewRing(n, qs, 0)
	if err != nil {
		return err
	}
	pa, pb, po := rq.NewPoly(1), rq.NewPoly(1), rq.NewPoly(1)
	copy(pa.Coeffs[0], data)
	copy(pb.Coeffs[0], data)
	pa.IsNTT, pb.IsNTT = true, true
	rq.SetStrictKernels(true)
	add("mul_elementwise", "strict", 1, func() { rq.MulCoeffwise(po, pa, pb) })
	rq.SetStrictKernels(false)
	add("mul_elementwise", "lazy", 1, func() { rq.MulCoeffwise(po, pa, pb) })

	// Keyswitch: the full pipeline (decompose, ModUp, NTT, fused digit
	// inner product, ModDown) at workers=1 and at GOMAXPROCS, under the
	// strict, lazy, and fused-at-selected-k dispatch modes.
	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     *logN,
		LogQ:     []int{55, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		return err
	}
	kgen := ckks.NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	pk := kgen.GenPublicKey(sk)
	encr := ckks.NewEncryptor(params, pk, 7)
	enc := ckks.NewEncoder(params)
	z := make([]complex128, params.Slots)
	for i := range z {
		z[i] = complex(float64(i%17)/17, float64(i%5)/5)
	}
	ct := encr.Encrypt(enc.Encode(z, params.MaxLevel(), params.Scale))
	ev := ckks.NewEvaluator(params, rlk, nil)

	workerCounts := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		workerCounts = append(workerCounts, g)
	}
	for _, w := range workerCounts {
		evw := ev.WithWorkers(w)
		// The default dispatch is the fused kernel; strict and lazy are
		// measured on the plain radix-2 transform (degree 1).
		if err := params.SetFusionDegree(1); err != nil {
			return err
		}
		params.SetStrictKernels(true)
		add("keyswitch", "strict", w, func() { evw.KeySwitch(ct, &rlk.SwitchingKey) })
		params.SetStrictKernels(false)
		lazyKS := add("keyswitch", "lazy", w, func() { evw.KeySwitch(ct, &rlk.SwitchingKey) })
		if err := params.SetFusionDegree(sel.K); err != nil {
			return err
		}
		fusedKS := add("keyswitch", fmt.Sprintf("fused-k%d", sel.K), w, func() { evw.KeySwitch(ct, &rlk.SwitchingKey) })
		if err := params.SetFusionDegree(0); err != nil {
			return err
		}
		rep.Speedups[fmt.Sprintf("keyswitch fused-k%d vs lazy/workers=%d", sel.K, w)] =
			fmt.Sprintf("%.2fx", lazyKS/fusedKS)
	}

	// Pair up lazy/strict runs into speedup ratios.
	type key struct {
		name    string
		workers int
	}
	strictNs := map[key]float64{}
	for _, b := range rep.Benchmarks {
		if b.Mode == "strict" {
			strictNs[key{b.Name, b.Workers}] = b.NsPerOp
		}
	}
	for _, b := range rep.Benchmarks {
		if b.Mode == "lazy" {
			if s, ok := strictNs[key{b.Name, b.Workers}]; ok && b.NsPerOp > 0 {
				rep.Speedups[fmt.Sprintf("%s/workers=%d", b.Name, b.Workers)] =
					fmt.Sprintf("%.2fx", s/b.NsPerOp)
			}
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if *out == "-" {
		if _, err = os.Stdout.Write(blob); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	for k, v := range rep.Speedups {
		fmt.Fprintf(os.Stderr, "  %-40s %s\n", k, v)
	}
	fmt.Fprintf(os.Stderr, "  sweep-selected k=%d (%.2fx fwd, %.2fx inv vs lazy), inflection=%v\n",
		sel.K, sel.ForwardSpeedup, sel.InverseSpeedup, rep.Inflection)

	if *gate {
		const floor = 1.5
		if sel.ForwardSpeedup < floor || sel.InverseSpeedup < floor {
			return fmt.Errorf("benchkernels gate: fused NTT speedup at k=%d is %.2fx fwd / %.2fx inv, floor %.1fx",
				sel.K, sel.ForwardSpeedup, sel.InverseSpeedup, floor)
		}
		if !rep.Inflection {
			return fmt.Errorf("benchkernels gate: k-sweep shows no inflection (no k beats both neighbors)")
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"poseidon/internal/ckks"
)

func init() {
	register("benchlinalg", "double-hoisted vs per-rotation BSGS linear transforms + n1 sweep, emitted as JSON", runBenchLinalg)
}

// linalgCase is one timed (case, path, n1) configuration in
// BENCH_linalg.json, with the engine's own work counters attached so the
// time delta can be read against the ModDown/NTT accounting that explains
// it.
type linalgCase struct {
	Case    string  `json:"case"` // dense, banded
	Path    string  `json:"path"` // double-hoisted, per-rotation
	N1      int     `json:"n1"`
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int     `json:"iterations"` // per trial; NsPerOp is min-of-trials
	Trials  int     `json:"trials"`

	Stats ckks.LinTransStats `json:"stats"`
}

// linalgReport is the BENCH_linalg.json schema.
type linalgReport struct {
	GeneratedBy string      `json:"generated_by"`
	Host        hostContext `json:"host"`
	LogN        int         `json:"log_n"`
	Slots       int         `json:"slots"`
	Level       int         `json:"level"`
	Digits      int         `json:"digits"`

	Cases []linalgCase `json:"cases"`

	// The gate compares each path at its best sweep point on the dense
	// case: per-rotation bottoms out near n1 = √n (balanced rotation
	// counts), double-hoisting shifts the optimum toward wider baby steps
	// because lazy baby rotations cost no basis transforms.
	DenseBestDH     linalgCase `json:"dense_best_double_hoisted"`
	DenseBestPerRot linalgCase `json:"dense_best_per_rotation"`
	DenseSpeedup    float64    `json:"dense_speedup"`

	// DensePlannedN1 is the width NewLinearTransform's planner picks for the
	// dense matrix, reported beside the measured optimum (DenseBestDH.N1);
	// nothing gates on their agreeing.
	DensePlannedN1 int `json:"dense_planned_n1"`

	Speedups map[string]string `json:"speedups"`
}

// runBenchLinalg times the double-hoisted linear-transform engine against
// the per-rotation reference on a dense 2^(logN-1)-slot matrix (sweeping
// the baby-step width n1) and on a 9-diagonal wrap-around band, and writes
// the results to a machine-readable JSON file. The two paths are
// decrypt-equivalent (see the differential suite in internal/ckks); this
// reports what collapsing per-rotation ModDowns into one per giant-step
// group buys in time. With -gate, the run fails unless the double-hoisted
// path beats per-rotation by the ROADMAP floor (1.5×) on the dense case,
// each path taken at its best sweep point.
func runBenchLinalg(fs *flag.FlagSet, args []string) error {
	logN := fs.Int("logn", 13, "ring degree log2 (slots = 2^(logn-1))")
	out := fs.String("o", "BENCH_linalg.json", "output path ('-' for stdout)")
	gate := fs.Bool("gate", false, "fail unless double-hoisted ≥1.5x per-rotation on the dense case")
	trials := fs.Int("trials", 3, "timing trials per configuration (min is reported)")
	minIters := fs.Int("miniters", 2, "minimum iterations per trial")
	if err := fs.Parse(args); err != nil {
		return err
	}

	params, err := ckks.NewParameters(ckks.ParametersLiteral{
		LogN:     *logN,
		LogQ:     []int{55, 45, 45, 45},
		LogP:     []int{58, 58},
		LogScale: 45,
	})
	if err != nil {
		return err
	}
	n := params.Slots
	level := params.MaxLevel()

	rep := linalgReport{
		GeneratedBy: "poseidon benchlinalg",
		Host:        readHostContext(),
		LogN:        *logN,
		Slots:       n,
		Level:       level,
		Digits:      params.Digits(level),
		Speedups:    map[string]string{},
	}

	kgen := ckks.NewKeyGenerator(params, 42)
	sk := kgen.GenSecretKey()
	rlk := kgen.GenRelinearizationKey(sk)
	pk := kgen.GenPublicKey(sk)
	encr := ckks.NewEncryptor(params, pk, 7)
	enc := ckks.NewEncoder(params)

	rng := rand.New(rand.NewSource(9))
	z := make([]complex128, n)
	for i := range z {
		z[i] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
	}
	ct := encr.Encrypt(enc.Encode(z, level, params.Scale))

	// timeIt reports the best per-trial mean over -trials back-to-back
	// trials, each running at least -miniters iterations (and enough to
	// fill ~500ms, so the fast banded case still averages over many). A
	// single testing.Benchmark pass lands on 1 iteration for the
	// multi-second dense configurations, which let one descheduled run
	// flip the best-n1 selection and the published speedups.
	timeIt := func(f func()) (float64, int) {
		start := time.Now()
		f()
		est := float64(time.Since(start).Nanoseconds())
		n := *minIters
		if k := int(500e6/est) + 1; k > n {
			n = k
		}
		best := math.Inf(1)
		for t := 0; t < *trials; t++ {
			start := time.Now()
			for i := 0; i < n; i++ {
				f()
			}
			if ns := float64(time.Since(start).Nanoseconds()) / float64(n); ns < best {
				best = ns
			}
		}
		return best, n
	}

	// measure times both paths on one transform and appends the results.
	// Key material is provisioned per transform (the sweep changes the
	// rotation set) and released with it.
	measure := func(name string, lt *ckks.LinearTransform) (dh, pr linalgCase) {
		rtk := kgen.GenRotationKeys(sk, lt.Rotations(), false)
		ev := ckks.NewEvaluator(params, rlk, rtk)
		dst := ckks.NewCiphertext(params, lt.Level)

		ev.EvaluateLinearTransformInto(dst, ct, lt) // warm-up: plan, pools, Galois tables
		_, dhStats := ev.EvaluateLinearTransformWithStats(ct, lt)
		ns, iters := timeIt(func() { ev.EvaluateLinearTransformInto(dst, ct, lt) })
		dh = linalgCase{Case: name, Path: "double-hoisted", N1: lt.N1, NsPerOp: ns, Iters: iters, Trials: *trials, Stats: dhStats}

		_, prStats := ev.EvaluateLinearTransformPerRotationWithStats(ct, lt)
		ns, iters = timeIt(func() { ev.EvaluateLinearTransformPerRotation(ct, lt) })
		pr = linalgCase{Case: name, Path: "per-rotation", N1: lt.N1, NsPerOp: ns, Iters: iters, Trials: *trials, Stats: prStats}

		rep.Cases = append(rep.Cases, dh, pr)
		fmt.Fprintf(os.Stderr, "  %-7s n1=%-4d  double-hoisted %12.0f ns/op (%3d ModDowns)   per-rotation %12.0f ns/op (%3d ModDowns)   %.2fx\n",
			name, lt.N1, dh.NsPerOp, dhStats.ModDownSweeps, pr.NsPerOp, prStats.ModDownSweeps, pr.NsPerOp/dh.NsPerOp)
		return dh, pr
	}

	// Dense case: every diagonal populated, swept over the baby-step width.
	dense := make([][]complex128, n)
	for r := range dense {
		row := make([]complex128, n)
		for c := range row {
			row[c] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
		dense[r] = row
	}
	// The planner's own pick is measured first, on the transform that
	// revealed it, then the fixed sweep points; each transform is dropped
	// before the next is built (a dense one is ~1.5 GB at logn 13).
	planned, err := ckks.NewLinearTransform(enc, dense, level, params.Scale)
	if err != nil {
		return err
	}
	rep.DensePlannedN1 = planned.N1
	widths := []int{planned.N1}
	for _, n1 := range []int{32, 64, 128, 256} {
		if n1 != planned.N1 && n1 <= n {
			widths = append(widths, n1)
		}
	}
	var bestDH, bestPR *linalgCase
	for k, n1 := range widths {
		lt := planned
		planned = nil
		if k > 0 {
			if lt, err = ckks.NewLinearTransformBSGS(enc, dense, level, params.Scale, n1); err != nil {
				return err
			}
		}
		dh, pr := measure("dense", lt)
		if bestDH == nil || dh.NsPerOp < bestDH.NsPerOp {
			bestDH = &dh
		}
		if bestPR == nil || pr.NsPerOp < bestPR.NsPerOp {
			bestPR = &pr
		}
	}
	rep.DenseBestDH, rep.DenseBestPerRot = *bestDH, *bestPR
	fmt.Fprintf(os.Stderr, "  dense: planner picks n1=%d, measured double-hoisted optimum n1=%d\n", rep.DensePlannedN1, bestDH.N1)
	rep.DenseSpeedup = bestPR.NsPerOp / bestDH.NsPerOp
	rep.Speedups[fmt.Sprintf("dense double-hoisted(n1=%d) vs per-rotation(n1=%d)", bestDH.N1, bestPR.N1)] =
		fmt.Sprintf("%.2fx", rep.DenseSpeedup)

	// Banded case: 9 wrap-around diagonals at the planned width — the
	// sparse shape where per-group hoisting has the least to amortize.
	banded := make([][]complex128, n)
	for r := range banded {
		banded[r] = make([]complex128, n)
	}
	for _, d := range []int{0, 1, 2, 3, 4, n - 4, n - 3, n - 2, n - 1} {
		for r := 0; r < n; r++ {
			banded[r][(r+d)%n] = complex(rng.Float64()-0.5, rng.Float64()-0.5)
		}
	}
	ltBand, err := ckks.NewLinearTransform(enc, banded, level, params.Scale)
	if err != nil {
		return err
	}
	bandDH, bandPR := measure("banded", ltBand)
	rep.Speedups["banded double-hoisted vs per-rotation"] = fmt.Sprintf("%.2fx", bandPR.NsPerOp/bandDH.NsPerOp)

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
		fmt.Fprintf(os.Stderr, "  %-60s %s\n", k, v)
	}

	if *gate {
		const floor = 1.5
		if rep.DenseSpeedup < floor {
			return fmt.Errorf("benchlinalg gate: dense double-hoisted speedup is %.2fx, floor %.1fx", rep.DenseSpeedup, floor)
		}
		fmt.Fprintf(os.Stderr, "PASS benchlinalg gate: dense %.2fx ≥ %.1fx\n", rep.DenseSpeedup, floor)
	}
	return nil
}

// Command bench is the repository's one benchmark: five workloads from the
// NTT kernel to a served request, five end-to-end metrics per workload, and
// a traced pass that explains each workload layer by layer. See README.md.
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one pass over one workload
//	bench [--seed n] [--seconds s] [-o file]                         every workload, both passes
//	bench compare A.json B.json                                      regression verdicts
//	bench table results/baseline.json                                the README's numbers table
//	bench manifest                                                   BENCHMARK.json, from the program's own tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// resultsDir is the only directory the benchmark writes to.
const resultsDir = "bench/results"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(runCompare(os.Args[2:], os.Stdout))
		case "table":
			os.Exit(runTable(os.Args[2:], os.Stdout))
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "bench manifest:", err)
				os.Exit(1)
			}
			return
		}
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one pass over this workload and print one result line (default: every workload, both passes)")
	seed := fs.Int64("seed", 1, "generates every message, matrix, ciphertext pool and tenant offset")
	seconds := fs.Float64("seconds", defaultSeconds, "measured seconds per pass, split into segments")
	trace := fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny rings and short segments: checks the harness, measures nothing")
	out := fs.String("o", "", "full run: result file (default "+resultsDir+"/<commit>-seed<seed>.json)")
	dir := fs.String("results", resultsDir, "directory for trace and result files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	host, err := pinHost()
	if err != nil {
		return err
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, smoke: *smoke}
	if cfg.smoke {
		microBatch = 200 * time.Microsecond
	}
	if *workload != "" {
		return runOne(*workload, cfg, *trace != 0, *dir, host, stdout)
	}
	return runAll(cfg, *dir, *out, host, stdout)
}

// resultLine is the last line of a one-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is the driver's entry: one pass, every metric of that pass by name
// with its unit, then the result object as the last line.
func runOne(name string, cfg runConfig, traced bool, dir string, host hostInfo, stdout io.Writer) error {
	def, err := findWorkload(name)
	if err != nil {
		return err
	}
	start := time.Now()
	printHeader(stdout, host, cfg)
	specs := endToEnd
	var res *passResult
	if traced {
		specs = perLayer
		res, err = runTraced(def, cfg, dir, stdout)
	} else {
		res, err = runUntraced(def, cfg, stdout)
	}
	if err != nil {
		return err
	}
	printPass(stdout, res, specs)
	fmt.Fprintf(stdout, "wall %.1fs\n", time.Since(start).Seconds())
	// Every name of the pass goes on the line, value and unit only; a
	// per-layer metric this workload does not measure reads 0.
	line := resultLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, s := range specs {
		line.Metrics[s.Name] = metricValue{Value: res.Metrics[s.Name].Value, Unit: s.Unit}
	}
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", blob)
	return err
}

// fullResult is the file a full run writes and `compare` reads.
type fullResult struct {
	Host      hostInfo         `json:"host"`
	Config    configBlock      `json:"config"`
	Workloads []workloadResult `json:"workloads"`
	WallS     float64          `json:"wall_s"`
}

type configBlock struct {
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Segments     int     `json:"segments"`
	SegmentS     float64 `json:"segment_s"`
	SetupMin     int     `json:"setup_repeat_min"`
	Smoke        bool    `json:"smoke"`
	BurstTenants int     `json:"serve_bursts_tenants"`
	ChainTenants int     `json:"serve_chain_tenants"`
	Ladder       []rung  `json:"ladder"`
}

type workloadResult struct {
	Name     string      `json:"name"`
	Rung     string      `json:"rung"`
	EndToEnd *passResult `json:"end_to_end"`
	PerLayer *passResult `json:"per_layer"`
}

func (c runConfig) block() configBlock {
	return configBlock{
		Seed: c.seed, Seconds: c.seconds, Segments: c.segments(), SegmentS: c.segment().Seconds(),
		SetupMin: setupMin, Smoke: c.smoke,
		BurstTenants: burstTenants, ChainTenants: chainTenants, Ladder: ladder,
	}
}

// runAll runs every workload untraced and then traced, prints every metric,
// and writes the result file.
func runAll(cfg runConfig, dir, out string, host hostInfo, stdout io.Writer) error {
	start := time.Now()
	printHeader(stdout, host, cfg)
	full := fullResult{Host: host, Config: cfg.block()}
	failed := false
	for _, def := range workloadDefs {
		wr := workloadResult{Name: def.Name, Rung: def.Rung.Name}
		fmt.Fprintf(stdout, "\n== %s [%s] end to end ==\n", def.Name, def.Rung.Name)
		var err error
		if wr.EndToEnd, err = runUntraced(def, cfg, stdout); err != nil {
			return err
		}
		printPass(stdout, wr.EndToEnd, endToEnd)
		runtime.GC()
		fmt.Fprintf(stdout, "\n== %s [%s] per layer (traced) ==\n", def.Name, def.Rung.Name)
		if wr.PerLayer, err = runTraced(def, cfg, dir, stdout); err != nil {
			return err
		}
		printPass(stdout, wr.PerLayer, perLayer)
		runtime.GC()
		failed = failed || !wr.EndToEnd.Correct || !wr.PerLayer.Correct
		full.Workloads = append(full.Workloads, wr)
	}
	full.WallS = time.Since(start).Seconds()
	fmt.Fprintf(stdout, "\nwall %.1fs\n", full.WallS)
	if out == "" {
		out = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", host.Commit, cfg.seed))
	}
	if err := writeJSON(out, &full); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	if failed {
		return fmt.Errorf("at least one workload had failed ops or wrong outputs")
	}
	return nil
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func printHeader(w io.Writer, h hostInfo, cfg runConfig) {
	fmt.Fprintf(w, "host: nproc %d, GOMAXPROCS %d, workers %d, %s, %s, commit %s\n",
		h.NProc, h.GOMAXPROCS, h.Workers, h.CPUModel, h.GoVersion, h.Commit)
	fmt.Fprintf(w, "config: seed %d, %d segments x %.2fs, at least %d set-ups per run, smoke %v\n",
		cfg.seed, cfg.segments(), cfg.segment().Seconds(), setupMin, cfg.smoke)
}

// printPass prints every metric the pass measured by name, value and unit.
func printPass(w io.Writer, res *passResult, specs []metricSpec) {
	fmt.Fprintf(w, "%s: attempted %d, failed %d, samples %d, outputs validated %d, correct %v\n",
		res.Workload, res.Attempted, res.Failed, res.Samples, res.Validated, res.Correct)
	skipped := 0
	for _, s := range specs {
		m, ok := res.Metrics[s.Name]
		if !ok {
			skipped++
			continue
		}
		exact := ""
		if s.Exact {
			exact = " #"
		}
		fmt.Fprintf(w, "  %-42s %14.4f %s%s\n", s.Name, m.Value, s.Unit, exact)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  (%d per-layer metrics belong to other workloads or rungs and read 0 here)\n", skipped)
	}
	for _, lg := range res.Ledgers {
		printLedger(w, lg)
	}
}

func printLedger(w io.Writer, lg ledger) {
	fmt.Fprintf(w, "  ledger %s: %d spans, mean %.3f ms\n", lg.Parent, lg.Count, lg.MeanMs)
	for _, c := range lg.Children {
		fmt.Fprintf(w, "    %-36s %6.2f%%  %9.3f ms  x%.2f\n", c.Name, c.SharePct, c.MeanMs, c.Calls)
	}
	fmt.Fprintf(w, "    %-36s %6.2f%%  (residual)\n", "self", lg.SelfPct)
	if lg.OverlapPct > 0.01 {
		fmt.Fprintf(w, "    %-36s %6.2f%%  (siblings running concurrently)\n", "overlap", lg.OverlapPct)
	}
}

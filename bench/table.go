package main

import (
	"fmt"
	"io"
	"os"
	"strings"
)

// tableLayerColumns are the per-layer figures worth a glance beside the
// end-to-end ones; the full set is in the result file.
var tableLayerColumns = []string{
	"ntt.fwd.n13.us", "ntt.fwd.n9.us", "ckks.mulrelin.us", "ckks.rotate.us",
	"ring.ntt_poly.p13.w1.us", "ring.ntt_poly.p13.w2.us", "ring.ntt_poly.b9.w1.us", "ring.ntt_poly.b9.w2.us",
	"ckks.chain.mulrelin_share", "ckks.boot.evalmod.ms", "ckks.boot.residual_pct",
	"server.solo_rotate.ms", "server.sched_floor_ms",
	"server.serve_bursts.mean_batch", "server.serve_chain.mean_batch",
	"server.serve_bursts.queue_ms", "server.serve_chain.queue_ms",
	"server.open.knee_rps",
}

// writeTable renders a result file as the README's seed-state tables.
func writeTable(r *fullResult, w io.Writer) {
	fmt.Fprintf(w, "Host: %s, nproc %d, GOMAXPROCS %d, workers %d, %s; commit %s, seed %d, %d segments x %.0f s.\n\n",
		r.Host.CPUModel, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Workers, r.Host.GoVersion,
		r.Host.Commit, r.Config.Seed, r.Config.Segments, r.Config.SegmentS)
	fmt.Fprint(w, "| workload | rung |")
	for _, s := range endToEnd {
		fmt.Fprintf(w, " %s (%s) |", s.Name, s.Unit)
	}
	fmt.Fprint(w, " failed/attempted |\n|---|---|")
	fmt.Fprint(w, strings.Repeat("---|", len(endToEnd)+1), "\n")
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "| `%s` | %s |", wl.Name, wl.Rung)
		for _, s := range endToEnd {
			fmt.Fprintf(w, " %.4g |", wl.EndToEnd.Metrics[s.Name].Value)
		}
		fmt.Fprintf(w, " %d/%d |\n", wl.EndToEnd.Failed, wl.EndToEnd.Attempted)
	}
	fmt.Fprint(w, "\nThe three timings above are at reference speed; the clock itself read:\n\n")
	fmt.Fprint(w, "| workload | host speed (1 = quiet reference box) | setup_s on the wall (s) | op_p50_ms on the wall (ms) | ops_per_s on the wall (1/s) |\n|---|---|---|---|---|\n")
	for _, wl := range r.Workloads {
		if c := wl.EndToEnd.Wall; c != nil {
			fmt.Fprintf(w, "| `%s` | %.3g | %.4g | %.4g | %.4g |\n", wl.Name, c.HostSpeed, c.SetupS, c.OpP50Ms, c.OpsPerS)
		}
	}
	fmt.Fprint(w, "\n| per-layer metric | unit | value | measured in the traced run of |\n|---|---|---|---|\n")
	for _, name := range tableLayerColumns {
		spec, _ := findSpec(perLayer, name)
		for _, wl := range r.Workloads {
			if v := wl.PerLayer.Metrics[name].Value; v != 0 {
				fmt.Fprintf(w, "| `%s` | %s | %.4g | `%s` |\n", name, spec.Unit, v, wl.Name)
				break
			}
		}
	}
}

// runTable is `bench table <result.json>`.
func runTable(args []string, w io.Writer) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: bench table <result.json>")
		return 2
	}
	r, err := readResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench table:", err)
		return 2
	}
	writeTable(r, w)
	return 0
}

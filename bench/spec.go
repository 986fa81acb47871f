package main

// The benchmark's contract with BENCHMARK.json: every metric name, unit,
// direction and bound lives here once; the program prints from these tables
// and spec_test.go checks BENCHMARK.json against them in both directions.

// metricSpec describes one metric.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Exact marks counts and simulated figures: they involve no clock and
	// must repeat bit for bit between runs of one commit and seed.
	Exact bool
	// Moves names the end-to-end metric and workloads a change to this
	// layer metric is predicted to move (per-layer metrics only).
	Moves string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. Failures are not a metric here because the count of
// failed ops (errors, non-200 replies, refusals, validation mismatches)
// against ops attempted is part of every result line and any failure makes
// the run incorrect.
//
// The three timings are reported at reference speed (calib.go): on the
// shared 2-core reference host the wall clock of the same binary drifts by
// 3 to 40 % between sets of ten runs, the scaled figures by 1 to 11 %
// (README.md, "How steady the numbers are"). Their bounds stay at the
// contract's ceiling: a gate may only assert a difference well above its own
// noise, and in the host's worst minutes a scaled spread still reached 16 %.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "precision_bits", Unit: "bits", Better: "higher", Bound: 0.10},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.05},
}

const (
	movesP13  = "op_p50_ms, ops_per_s on cmult_chain and lintrans_bsgs"
	movesLT   = "op_p50_ms, ops_per_s on lintrans_bsgs; not cmult_chain"
	movesCh   = "op_p50_ms, ops_per_s on cmult_chain; not lintrans_bsgs"
	movesB9   = "op_p50_ms, ops_per_s on bootstrap_deep"
	movesRot  = "op_p50_ms, ops_per_s on lintrans_bsgs and serve_bursts; not cmult_chain"
	movesLib  = "ops_per_s on cmult_chain, lintrans_bsgs, bootstrap_deep"
	movesSrv  = "op_p50_ms, ops_per_s on serve_chain (floor, codec) and serve_bursts (batching, sharing); no library workload"
	movesNone = "no end-to-end metric; must stay bit-equal unless a change says it alters the model"
)

// perLayer lists every per-layer metric the traced pass prints. A traced
// run of one workload measures the layers beneath that workload (its rung's
// microbenchmarks, its own ledger and counters); a metric that belongs to
// another workload or rung reads 0 in that run.
var perLayer = []metricSpec{
	// numeric: N = 8192 coefficients, first P13 prime.
	{Name: "numeric.vec_montmul.ns_per_coeff", Unit: "ns/coeff", Better: "lower", Moves: movesP13},
	{Name: "numeric.vec_macwide.ns_per_coeff", Unit: "ns/coeff", Better: "lower", Moves: movesLT},
	{Name: "numeric.vec_macwide_pair.ns_per_coeff", Unit: "ns/coeff", Better: "lower", Moves: movesLT},
	{Name: "numeric.vec_reducewide.ns_per_coeff", Unit: "ns/coeff", Better: "lower", Moves: movesLT},

	// ntt: one limb, default dispatch through ring.ForwardLimb/InverseLimb.
	{Name: "ntt.fwd.n13.us", Unit: "us", Better: "lower", Moves: movesP13},
	{Name: "ntt.inv.n13.us", Unit: "us", Better: "lower", Moves: movesP13},
	{Name: "ntt.fwd.n9.us", Unit: "us", Better: "lower", Moves: movesB9},
	{Name: "ntt.inv.n9.us", Unit: "us", Better: "lower", Moves: movesB9},
	{Name: "ntt.fused_k3.fwd.n13.us", Unit: "us", Better: "lower", Moves: "nothing while FusionDegree defaults to 0"},
	{Name: "ntt.fused_k3.inv.n13.us", Unit: "us", Better: "lower", Moves: "nothing while FusionDegree defaults to 0"},
	{Name: "ntt.fwd.n13.mults", Unit: "count", Better: "lower", Exact: true, Moves: movesP13},
	{Name: "ntt.fwd.n13.passes", Unit: "count", Better: "lower", Exact: true, Moves: movesP13},
	{Name: "ntt.fwd.n13.computed_gbps", Unit: "GB/s", Better: "higher", Moves: movesP13},

	// automorph: one limb at N = 8192.
	{Name: "automorph.hfauto.n13.us", Unit: "us", Better: "lower", Moves: movesRot},
	{Name: "automorph.naive.n13.us", Unit: "us", Better: "lower", Moves: "nothing: the naive map is the reference"},

	// rns
	{Name: "rns.modup_digit.p13.us", Unit: "us", Better: "lower", Moves: movesP13},
	{Name: "rns.moddown.p13.us", Unit: "us", Better: "lower", Moves: movesLT},
	{Name: "rns.rescale.p13.us", Unit: "us", Better: "lower", Moves: movesCh},
	{Name: "rns.moddown.b9.us", Unit: "us", Better: "lower", Moves: movesB9},

	// ring: whole-polynomial transforms at 1 and 2 workers.
	{Name: "ring.ntt_poly.p13.w1.us", Unit: "us", Better: "lower", Moves: movesLib},
	{Name: "ring.ntt_poly.p13.w2.us", Unit: "us", Better: "lower", Moves: movesLib},
	{Name: "ring.ntt_poly.b9.w1.us", Unit: "us", Better: "lower", Moves: movesB9},
	{Name: "ring.ntt_poly.b9.w2.us", Unit: "us", Better: "lower", Moves: movesB9},
	{Name: "ring.mul_coeffwise.p13.us", Unit: "us", Better: "lower", Moves: movesP13},
	{Name: "ring.arena.peak_mb", Unit: "MB", Better: "lower", Moves: "live_heap_mb on the workload run"},
	{Name: "ring.arena.gets_per_op", Unit: "count", Better: "lower", Exact: true, Moves: movesLib},

	// ckks: P13 top level, Into forms, workers 1.
	{Name: "ckks.add.us", Unit: "us", Better: "lower", Moves: "op_p50_ms on serve_chain"},
	{Name: "ckks.mulplain.us", Unit: "us", Better: "lower", Moves: movesB9},
	{Name: "ckks.mulrelin.us", Unit: "us", Better: "lower", Moves: movesCh},
	{Name: "ckks.rescale.us", Unit: "us", Better: "lower", Moves: movesCh},
	{Name: "ckks.rotate.us", Unit: "us", Better: "lower", Moves: "op_p50_ms on serve_bursts and serve_chain"},
	{Name: "ckks.keyswitch.us", Unit: "us", Better: "lower", Moves: movesP13},
	{Name: "ckks.hoist.us", Unit: "us", Better: "lower", Moves: movesRot},
	{Name: "ckks.hoisted_rotate.us", Unit: "us", Better: "lower", Moves: movesRot},
	{Name: "ckks.encode.us", Unit: "us", Better: "lower", Moves: "setup_s on lintrans_bsgs and bootstrap_deep"},
	{Name: "ckks.decode.us", Unit: "us", Better: "lower", Moves: "nothing timed: validation runs with the clock stopped"},
	{Name: "ckks.encrypt.us", Unit: "us", Better: "lower", Moves: "setup_s"},
	{Name: "ckks.decrypt.us", Unit: "us", Better: "lower", Moves: "nothing timed: validation runs with the clock stopped"},
	{Name: "ckks.cmult_chain.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, live_heap_mb on cmult_chain"},
	{Name: "ckks.cmult_chain.op_p90_ms", Unit: "ms", Better: "lower", Moves: "tail of cmult_chain; not gated"},
	{Name: "ckks.lintrans_bsgs.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, live_heap_mb on lintrans_bsgs"},
	{Name: "ckks.lintrans_bsgs.op_p90_ms", Unit: "ms", Better: "lower", Moves: "tail of lintrans_bsgs; not gated"},
	{Name: "ckks.bootstrap_deep.allocs_per_op", Unit: "count", Better: "lower", Moves: "ops_per_s, live_heap_mb on bootstrap_deep"},
	{Name: "ckks.bootstrap_deep.op_p90_ms", Unit: "ms", Better: "lower", Moves: "tail of bootstrap_deep; not gated"},
	{Name: "ckks.lintrans.keyswitches", Unit: "count", Better: "lower", Exact: true, Moves: movesLT},
	{Name: "ckks.lintrans.moddowns", Unit: "count", Better: "lower", Exact: true, Moves: movesLT},
	{Name: "ckks.lintrans.ntt_limbs", Unit: "count", Better: "lower", Exact: true, Moves: movesLT},
	{Name: "ckks.boot.modraise.ms", Unit: "ms", Better: "lower", Moves: movesB9},
	{Name: "ckks.boot.coeff_to_slot.ms", Unit: "ms", Better: "lower", Moves: movesB9},
	{Name: "ckks.boot.evalmod.ms", Unit: "ms", Better: "lower", Moves: movesB9},
	{Name: "ckks.boot.slot_to_coeff.ms", Unit: "ms", Better: "lower", Moves: movesB9},
	{Name: "ckks.boot.residual_pct", Unit: "%", Better: "lower", Moves: movesB9},
	{Name: "ckks.chain.mulrelin_share", Unit: "%", Better: "lower", Moves: movesCh},
	{Name: "ckks.chain.rescale_share", Unit: "%", Better: "lower", Moves: movesCh},
	{Name: "ckks.chain.residual_pct", Unit: "%", Better: "lower", Moves: movesCh},
	{Name: "ckks.guard_overhead_pct", Unit: "%", Better: "lower", Moves: "op_p50_ms on serve_bursts and serve_chain (GuardSeed 1)"},
	{Name: "ckks.observer_overhead_pct", Unit: "%", Better: "lower", Moves: "op_p50_ms on serve_bursts and serve_chain (collector installed)"},

	// server: S11.
	{Name: "server.decode_req.us", Unit: "us", Better: "lower", Moves: movesSrv},
	{Name: "server.encode_req.us", Unit: "us", Better: "lower", Moves: "ops_per_s on serve_chain (client side)"},
	{Name: "server.ct_marshal.us", Unit: "us", Better: "lower", Moves: movesSrv},
	{Name: "server.ct_unmarshal.us", Unit: "us", Better: "lower", Moves: movesSrv},
	{Name: "server.wire_bytes_in_per_req", Unit: "count", Better: "lower", Exact: true, Moves: movesSrv},
	{Name: "server.wire_bytes_out_per_req", Unit: "count", Better: "lower", Exact: true, Moves: movesSrv},
	{Name: "server.solo_rotate.ms", Unit: "ms", Better: "lower", Moves: movesSrv},
	{Name: "server.sched_floor_ms", Unit: "ms", Better: "lower", Moves: movesSrv},
	{Name: "server.serve_bursts.mean_batch", Unit: "count", Better: "higher", Moves: "ops_per_s on serve_bursts"},
	{Name: "server.serve_bursts.batched_frac", Unit: "ratio", Better: "higher", Moves: "ops_per_s on serve_bursts"},
	{Name: "server.serve_bursts.hoist_shared_per_req", Unit: "ratio", Better: "higher", Moves: "ops_per_s on serve_bursts"},
	{Name: "server.serve_bursts.rejected", Unit: "count", Better: "lower", Exact: true, Moves: "failed ops on serve_bursts"},
	{Name: "server.serve_bursts.op_p99_ms", Unit: "ms", Better: "lower", Moves: "tail of serve_bursts; not gated"},
	{Name: "server.serve_bursts.queue_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_bursts"},
	{Name: "server.serve_bursts.exec_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_bursts"},
	{Name: "server.serve_bursts.deliver_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_bursts"},
	{Name: "server.serve_bursts.encode_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_bursts"},
	{Name: "server.serve_bursts.coverage_p05", Unit: "ratio", Better: "higher", Moves: "nothing: how much of a request the server's own spans explain"},
	{Name: "server.serve_chain.mean_batch", Unit: "count", Better: "higher", Moves: "ops_per_s on serve_chain"},
	{Name: "server.serve_chain.batched_frac", Unit: "ratio", Better: "higher", Moves: "ops_per_s on serve_chain"},
	{Name: "server.serve_chain.hoist_shared_per_req", Unit: "ratio", Better: "higher", Moves: "nothing: no two requests share a ciphertext"},
	{Name: "server.serve_chain.rejected", Unit: "count", Better: "lower", Exact: true, Moves: "failed ops on serve_chain"},
	{Name: "server.serve_chain.op_p99_ms", Unit: "ms", Better: "lower", Moves: "tail of serve_chain; not gated"},
	{Name: "server.serve_chain.queue_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_chain"},
	{Name: "server.serve_chain.exec_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_chain"},
	{Name: "server.serve_chain.deliver_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_chain"},
	{Name: "server.serve_chain.encode_ms", Unit: "ms", Better: "lower", Moves: "op_p50_ms on serve_chain"},
	{Name: "server.serve_chain.coverage_p05", Unit: "ratio", Better: "higher", Moves: "nothing: how much of a request the server's own spans explain"},
	{Name: "server.open.r80.p50_ms", Unit: "ms", Better: "lower", Moves: "not gated: open loop on the serve_bursts mix"},
	{Name: "server.open.r80.p95_ms", Unit: "ms", Better: "lower", Moves: "not gated"},
	{Name: "server.open.r160.p50_ms", Unit: "ms", Better: "lower", Moves: "not gated"},
	{Name: "server.open.r160.p95_ms", Unit: "ms", Better: "lower", Moves: "not gated"},
	{Name: "server.open.r240.p50_ms", Unit: "ms", Better: "lower", Moves: "not gated"},
	{Name: "server.open.r240.p95_ms", Unit: "ms", Better: "lower", Moves: "not gated"},
	{Name: "server.open.late_ms_max", Unit: "ms", Better: "lower", Moves: "nothing: how late the load generator itself ran"},
	{Name: "server.open.knee_rps", Unit: "1/s", Better: "higher", Moves: "not gated until time is simulated"},

	// tracing: traced vs untraced ops_per_s of the same run.
	{Name: "tracing.overhead_pct.serve_bursts", Unit: "%", Better: "lower", Moves: "nothing: tracing is off by default"},
	{Name: "tracing.overhead_pct.serve_chain", Unit: "%", Better: "lower", Moves: "nothing: tracing is off by default"},

	// arch / machine: simulated time on U280()/PaperParams(), deterministic.
	{Name: "arch.sim_ms.lr", Unit: "ms", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.sim_ms.lstm", Unit: "ms", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.sim_ms.resnet20", Unit: "ms", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.sim_ms.packed_boot", Unit: "ms", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.paper_err_pct.lr", Unit: "%", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.paper_err_pct.lstm", Unit: "%", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.paper_err_pct.resnet20", Unit: "%", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.paper_err_pct.packed_boot", Unit: "%", Better: "lower", Exact: true, Moves: movesNone},
	{Name: "arch.simulate_host_ms", Unit: "ms", Better: "lower", Moves: "nothing: host cost of the simulator"},
	{Name: "machine.keyswitch.host_ms", Unit: "ms", Better: "lower", Moves: "nothing: host cost of the ISA machine"},
	{Name: "ckks.measured_over_modeled.keyswitch", Unit: "ratio", Better: "lower", Moves: "nothing: distance between this CPU and the modeled accelerator"},
}

func findSpec(specs []metricSpec, name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

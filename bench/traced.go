package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"poseidon/internal/ckks"
	"poseidon/internal/server"
)

// tracerCapacity bounds the spans one traced segment may record; beyond it
// spans are dropped and the drop count is printed.
const tracerCapacity = 1 << 18

// allocRuns is how many ops the allocation and arena counts average over.
const allocRuns = 2

// traceable is what the traced pass needs from a library workload beyond
// instance: its parameter set and one untraced unit op.
type traceable interface {
	instance
	parameters() *ckks.Parameters
	once()
}

func (c *chainInst) parameters() *ckks.Parameters    { return c.params }
func (l *linTransInst) parameters() *ckks.Parameters { return l.kit.Params }
func (b *bootInst) parameters() *ckks.Parameters     { return b.params }

func (c *chainInst) once()    { c.op(nil, 0) }
func (l *linTransInst) once() { l.op(nil, 0) }
func (b *bootInst) once() {
	if err := b.op(nil, 0); err != nil {
		panic(err)
	}
}

// serving is what the traced pass needs from a serving workload.
type serving interface {
	instance
	base() *serveBase
}

func (b *serveBase) base() *serveBase { return b }

// tracePairs is how many (untraced, traced) slice pairs the traced pass
// alternates; the tracing overhead is the median pair's difference, so drift
// cancels inside a pair.
const tracePairs = 4

// runTraced is the per-layer pass: slices of the workload alternating
// between untraced and traced (a harness span around every call into a
// layer; for serving, the server's own tracer as well), then the layer
// microbenchmarks of the workload's rung and the workload's ledger. Metrics
// that belong to another workload or rung are not measured here.
func runTraced(def workloadDef, cfg runConfig, dir string, log io.Writer) (*passResult, error) {
	out := layerSink{}
	inst, _, err := setUp(def, cfg.env(), 1, 0)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	warmUp(inst, cfg.warmUp())

	res := &passResult{Workload: def.Name, Metrics: map[string]metricValue{}}
	// The alternating slices take half the measured seconds in all.
	slice := secs(cfg.seconds / (4 * tracePairs))
	sv, isServing := inst.(serving)
	var before server.Stats
	if isServing {
		b := sv.base()
		if err := b.enableTracing(); err != nil {
			return nil, err
		}
		// Warm the tracing server's tenant evaluators: a tracer with no
		// room routes requests there and records nothing.
		inst.runSegment(slice/4, newTracer(0))
		inst.validate()
		before = b.tracedSrv.Stats()
	}
	tr := newTracer(tracerCapacity)
	var lat, refRates, tracedRates []float64
	for i := 0; i < tracePairs; i++ {
		ref := inst.runSegment(slice, nil)
		_, refRate := res.addSegment(ref, inst.validate())
		traced := inst.runSegment(slice, tr)
		_, tracedRate := res.addSegment(traced, inst.validate())
		lat = append(append(lat, ref.latMs...), traced.latMs...)
		refRates, tracedRates = append(refRates, refRate), append(tracedRates, tracedRate)
	}

	rng := cfg.env().rng(9)
	lg := buildLedger(tr.recorded(), def.Name)
	res.Ledgers = append(res.Ledgers, lg)
	switch w := inst.(type) {
	case traceable:
		params := w.parameters()
		arenaBefore := params.ArenaStats()
		out["ckks."+def.Name+".allocs_per_op"] = allocsPerOp(w.once, allocRuns)
		arena := params.ArenaStats()
		// allocsPerOp makes one warm-up call before its counted runs.
		out["ring.arena.gets_per_op"] = float64(arena.Gets-arenaBefore.Gets) / (allocRuns + 1)
		out["ring.arena.peak_mb"] = float64(arena.PeakBytes) / (1 << 20)
		p90, beyond := percentile(lat, 90)
		out["ckks."+def.Name+".op_p90_ms"] = p90
		fmt.Fprintf(log, "  op_p90_ms over %d samples, %d beyond\n", len(lat), beyond)
		if err := libraryLayers(out, w, cfg, rng, lg); err != nil {
			return nil, err
		}
	case serving:
		b := w.base()
		statsDelta(out, def.Name, before, b.tracedSrv.Stats())
		stageMedians(out, def.Name, b.joinServerSpans(tr))
		p99, beyond := percentile(lat, 99)
		out["server."+def.Name+".op_p99_ms"] = p99
		fmt.Fprintf(log, "  op_p99_ms over %d samples, %d beyond\n", len(lat), beyond)
		out["tracing.overhead_pct."+def.Name] = 100 * (1 - pairedMedianRatio(tracedRates, refRates))
		out["ring.arena.peak_mb"] = float64(b.params.ArenaStats().PeakBytes) / (1 << 20)
		if err := layersServer(out, b); err != nil {
			return nil, err
		}
		if bi, ok := inst.(*burstsInst); ok {
			layersOpenLoop(out, bi, secs(cfg.seconds/float64(len(openRates))), log)
		}
		res.Ledgers = append(res.Ledgers, buildLedger(tr.recorded(), "server.ServeHTTP"))
	}
	if err := layersArch(out); err != nil {
		return nil, err
	}

	if d := tr.dropped.Load(); d > 0 {
		fmt.Fprintf(log, "  tracer full: %d spans dropped\n", d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res.TraceFile = filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", def.Name, cfg.seed))
	if err := tr.writeJSONL(res.TraceFile); err != nil {
		return nil, err
	}

	res.Correct = res.Failed == 0 && res.Validated > 0 && res.Samples > 0
	for name, v := range out {
		spec, ok := findSpec(perLayer, name)
		if !ok {
			return nil, fmt.Errorf("per-layer metric %q is not in the spec", name)
		}
		res.Metrics[name] = metricValue{Value: v, Unit: spec.Unit}
	}
	return res, nil
}

// libraryLayers fills in what is specific to each library workload and its
// rung's microbenchmarks.
func libraryLayers(out layerSink, w traceable, cfg runConfig, rng *rand.Rand, lg ledger) error {
	switch w := w.(type) {
	case *chainInst:
		out["ckks.chain.mulrelin_share"] = lg.child("ckks.MulRelinInto").SharePct
		out["ckks.chain.rescale_share"] = lg.child("ckks.RescaleInto").SharePct
		out["ckks.chain.residual_pct"] = lg.SelfPct
		chainFeatureCosts(out, w)
		return layersP13(out, cfg, rng, w.params)
	case *linTransInst:
		_, st := w.kit.Eval.EvaluateLinearTransformWithStats(w.inputs[0], w.lt)
		out["ckks.lintrans.keyswitches"] = float64(st.KeySwitches)
		out["ckks.lintrans.moddowns"] = float64(st.ModDownSweeps)
		out["ckks.lintrans.ntt_limbs"] = float64(st.NTTLimbs + st.InverseNTTLimbs)
		return layersP13(out, cfg, rng, w.kit.Params)
	case *bootInst:
		out["ckks.boot.modraise.ms"] = lg.child("ckks.boot.ModRaise").MeanMs
		out["ckks.boot.coeff_to_slot.ms"] = lg.child("ckks.boot.CoeffToSlot").MeanMs
		out["ckks.boot.evalmod.ms"] = lg.child("ckks.boot.EvalMod").MeanMs
		out["ckks.boot.slot_to_coeff.ms"] = lg.child("ckks.boot.SlotToCoeff").MeanMs
		out["ckks.boot.residual_pct"] = lg.SelfPct
		layersB9(out, rng, w.params)
	}
	return nil
}

func layersP13(out layerSink, cfg runConfig, rng *rand.Rand, params *ckks.Parameters) error {
	if err := layersKernelsP13(out, rng, params); err != nil {
		return err
	}
	return layersCkksP13(out, cfg.seed, params)
}

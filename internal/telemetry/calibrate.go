package telemetry

import (
	"math"

	"poseidon/internal/arch"
	"poseidon/internal/trace"
)

// KindCalib is one row of a model-vs-measured calibration: for one basic
// operation kind, how much wall time the software evaluator actually spent
// (summed over all limb counts) against what the accelerator model predicts
// for the same op sequence. Ratio = measured/modeled — the software-vs-
// accelerator speedup the paper's Table VII evaluation is built on.
type KindCalib struct {
	Kind        trace.Kind `json:"kind"`
	Name        string     `json:"name"`
	Count       uint64     `json:"count"`        // timed op executions joined
	MeasuredSec float64    `json:"measured_sec"` // software wall time (telemetry histograms)
	ModeledSec  float64    `json:"modeled_sec"`  // accelerator model prediction
	Ratio       float64    `json:"ratio"`        // measured / modeled
}

// CalibStats is the calibration summary joining a telemetry snapshot with an
// accelerator model over the same run: per-kind measured/modeled ratios plus
// a drift summary (geomean and spread of the ratios). A geomean far from its
// historical value means either the software or the model drifted.
type CalibStats struct {
	Workload     string      `json:"workload,omitempty"`
	PerKind      []KindCalib `json:"per_kind"`
	GeomeanRatio float64     `json:"geomean_ratio"`
	MinRatio     float64     `json:"min_ratio"`
	MaxRatio     float64     `json:"max_ratio"`
}

// Calibrate joins a telemetry snapshot's measured per-op wall times with the
// accelerator model's predictions: for every kind that executed, measured
// seconds are the histogram sums and modeled seconds are count × the model's
// per-op latency at the same limb count. The per-kind measured/modeled ratio
// says how far this software baseline sits from the modeled accelerator —
// the drift summary (geomean, min, max over kinds) is the one-number health
// check that the cost model and the measured workload still describe the
// same machine.
func Calibrate(snap *Snapshot, model *arch.Model) *CalibStats {
	type acc struct {
		count    uint64
		measured float64
		modeled  float64
	}
	perKind := map[trace.Kind]*acc{}
	for _, ks := range snap.Keys {
		if ks.Count == 0 {
			continue
		}
		a := perKind[ks.Kind]
		if a == nil {
			a = &acc{}
			perKind[ks.Kind] = a
		}
		a.count += ks.Count
		a.measured += float64(ks.SumNs) / 1e9
		a.modeled += float64(ks.Count) * model.Latency(model.ProfileFor(ks.Kind, ks.Limbs))
	}

	cs := &CalibStats{Workload: snap.Workload}
	logSum, nRatio := 0.0, 0
	cs.MinRatio = math.Inf(1)
	cs.MaxRatio = math.Inf(-1)
	for _, k := range trace.Kinds() {
		a := perKind[k]
		if a == nil {
			continue
		}
		kc := KindCalib{
			Kind:        k,
			Name:        k.String(),
			Count:       a.count,
			MeasuredSec: a.measured,
			ModeledSec:  a.modeled,
		}
		if a.measured > 0 && a.modeled > 0 {
			kc.Ratio = a.measured / a.modeled
			logSum += math.Log(kc.Ratio)
			nRatio++
			cs.MinRatio = math.Min(cs.MinRatio, kc.Ratio)
			cs.MaxRatio = math.Max(cs.MaxRatio, kc.Ratio)
		}
		cs.PerKind = append(cs.PerKind, kc)
	}
	if nRatio > 0 {
		cs.GeomeanRatio = math.Exp(logSum / float64(nRatio))
	} else {
		cs.MinRatio, cs.MaxRatio = 0, 0
	}
	return cs
}

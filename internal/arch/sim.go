package arch

import (
	"fmt"
	"sort"

	"poseidon/internal/trace"
)

// KindStat aggregates simulator results per basic-operation kind.
type KindStat struct {
	Kind    trace.Kind
	Count   float64
	Time    float64 // seconds
	Bytes   float64
	Energy  float64 // joules
	MinUtil float64 // lowest per-invocation bandwidth utilization
}

// Report is the result of executing a trace on a design point: everything
// the paper's benchmark figures need.
type Report struct {
	Name    string
	Workers int // evaluator worker count the trace was captured with (0 = unknown)

	TotalTime   float64 // seconds
	TotalBytes  float64
	TotalEnergy float64 // joules
	EDP         float64 // joule·seconds

	ByKind     map[trace.Kind]*KindStat
	ByOperator map[Operator]float64 // seconds of attributed time
	ByTag      map[string]float64   // seconds per workload phase label

	AvgBandwidthUtil float64
}

// Simulate executes tr on the model with the given energy model.
func Simulate(m *Model, em EnergyModel, tr *trace.Trace) Report {
	rep := Report{
		Name:       tr.Name,
		Workers:    tr.Workers,
		ByKind:     map[trace.Kind]*KindStat{},
		ByOperator: map[Operator]float64{},
		ByTag:      map[string]float64{},
	}
	for _, op := range tr.Ops {
		prof := m.ProfileFor(op.Kind, op.Limbs)
		t := m.Latency(prof)
		energy := em.Energy(m, prof).Total()
		util := m.BandwidthUtilization(prof)

		st := rep.ByKind[op.Kind]
		if st == nil {
			st = &KindStat{Kind: op.Kind, MinUtil: 2}
			rep.ByKind[op.Kind] = st
		}
		st.Count += op.Count
		st.Time += t * op.Count
		st.Bytes += prof.HBMBytes * op.Count
		st.Energy += energy * op.Count
		if util < st.MinUtil {
			st.MinUtil = util
		}

		shares := m.Shares(prof)
		for o, s := range shares {
			rep.ByOperator[o] += s * t * op.Count
		}

		tag := op.Tag
		if tag == "" {
			tag = "(untagged)"
		}
		rep.ByTag[tag] += t * op.Count

		rep.TotalTime += t * op.Count
		rep.TotalBytes += prof.HBMBytes * op.Count
		rep.TotalEnergy += energy * op.Count
	}
	if rep.TotalTime > 0 {
		rep.AvgBandwidthUtil = rep.TotalBytes / (rep.TotalTime * m.Cfg.HBMGBs * 1e9)
	}
	rep.EDP = rep.TotalEnergy * rep.TotalTime
	return rep
}

// ProfileFor maps a trace operation kind to its cost profile.
func (m *Model) ProfileFor(kind trace.Kind, limbs int) Profile {
	switch kind {
	case trace.HAdd:
		return m.HAdd(limbs)
	case trace.HAddPlain:
		return m.HAddPlain(limbs)
	case trace.PMult:
		return m.PMult(limbs)
	case trace.CMult:
		return m.CMult(limbs)
	case trace.Rescale:
		return m.Rescale(limbs)
	case trace.Keyswitch:
		return m.Keyswitch(limbs)
	case trace.Rotation:
		return m.Rotation(limbs)
	case trace.Automorphism:
		return m.AutomorphismOp(limbs)
	case trace.NTTTransform:
		return m.NTTOp(limbs)
	case trace.ModUp:
		return m.ModUp(limbs)
	case trace.ModDown:
		return m.ModDown(limbs)
	case trace.LinTrans:
		return m.LinTrans(limbs)
	}
	panic(fmt.Sprintf("arch: unknown trace kind %v", kind))
}

// KindsByTime returns the per-kind stats sorted by descending time share.
func (r Report) KindsByTime() []*KindStat {
	out := make([]*KindStat, 0, len(r.ByKind))
	for _, st := range r.ByKind {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Time > out[j].Time })
	return out
}

// SimulateEnergyBreakdown re-runs the energy attribution to produce the
// Fig 12 breakdown for the whole trace.
func SimulateEnergyBreakdown(m *Model, em EnergyModel, tr *trace.Trace) Breakdown {
	var total Breakdown
	for _, op := range tr.Ops {
		prof := m.ProfileFor(op.Kind, op.Limbs)
		b := em.Energy(m, prof)
		total.MA += b.MA * op.Count
		total.MM += b.MM * op.Count
		total.NTT += b.NTT * op.Count
		total.Auto += b.Auto * op.Count
		total.HBM += b.HBM * op.Count
		total.Static += b.Static * op.Count
	}
	return total
}

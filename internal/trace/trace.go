// Package trace defines operation-level execution traces: sequences of FHE
// basic operations (with their level schedules) that the accelerator model
// executes. Workload generators build traces; the simulator consumes them.
package trace

import "fmt"

// Kind enumerates the FHE basic operations of the paper's Table I.
type Kind int

const (
	HAdd Kind = iota
	HAddPlain
	PMult
	CMult
	Rescale
	Keyswitch
	Rotation
	Automorphism
	NTTTransform
	ModUp
	ModDown
	LinTrans
	numKinds
)

// String returns the paper's name for the operation.
func (k Kind) String() string {
	switch k {
	case HAdd:
		return "HAdd"
	case HAddPlain:
		return "HAddPlain"
	case PMult:
		return "PMult"
	case CMult:
		return "CMult"
	case Rescale:
		return "Rescale"
	case Keyswitch:
		return "Keyswitch"
	case Rotation:
		return "Rotation"
	case Automorphism:
		return "Automorphism"
	case NTTTransform:
		return "NTT"
	case ModUp:
		return "ModUp"
	case ModDown:
		return "ModDown"
	case LinTrans:
		return "LinTrans"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds returns all operation kinds in declaration order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// NumKinds is the number of operation kinds — the index space observers and
// telemetry collectors size their per-kind tables with.
func NumKinds() int { return int(numKinds) }

// kindsByName maps every kind's paper name back to the kind, so observers
// resolving op-name strings pay one map lookup instead of a linear scan.
var kindsByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for _, k := range Kinds() {
		m[k.String()] = k
	}
	return m
}()

// KindByName resolves an operation name ("CMult", "Rescale", …) to its kind.
// Unknown names return ok=false; callers decide whether to drop or count
// them.
func KindByName(name string) (Kind, bool) {
	k, ok := kindsByName[name]
	return k, ok
}

// Op is a batch of identical basic operations at one level.
type Op struct {
	Kind  Kind
	Limbs int     // active RNS limbs (level+1) when the op executes
	Count float64 // how many times it runs (fractional for scaled models)
	Tag   string  // optional phase label (e.g. "CoeffToSlot")
}

// Trace is a named operation sequence. Workers records the limb-parallel
// worker count of the software evaluator the trace was captured on (0 =
// unknown/not captured from a live run), so simulated speedups stay
// attributable to the execution engine that produced the trace.
type Trace struct {
	Name        string
	Description string
	Workers     int
	Ops         []Op
}

// Add appends count occurrences of kind at the given limb count.
func (t *Trace) Add(kind Kind, limbs int, count float64) {
	t.AddTagged(kind, limbs, count, "")
}

// AddTagged appends with a phase label.
func (t *Trace) AddTagged(kind Kind, limbs int, count float64, tag string) {
	if count <= 0 || limbs < 1 {
		return
	}
	t.Ops = append(t.Ops, Op{Kind: kind, Limbs: limbs, Count: count, Tag: tag})
}

// TotalOps sums operation counts.
func (t *Trace) TotalOps() float64 {
	total := 0.0
	for _, op := range t.Ops {
		total += op.Count
	}
	return total
}

// CountByKind aggregates counts per operation kind.
func (t *Trace) CountByKind() map[Kind]float64 {
	m := map[Kind]float64{}
	for _, op := range t.Ops {
		m[op.Kind] += op.Count
	}
	return m
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// JSON interchange for traces, so workloads can be captured once and
// replayed across design points (the cmd/poseidon-sim flow).

type jsonOp struct {
	Kind  string  `json:"kind"`
	Limbs int     `json:"limbs"`
	Count float64 `json:"count"`
	Tag   string  `json:"tag,omitempty"`
}

// jsonTrace is the file format. Unknown keys are ignored, so files written
// with the since-removed "mem" / "fault" profiles still load.
type jsonTrace struct {
	Name        string   `json:"name"`
	Description string   `json:"description,omitempty"`
	Workers     int      `json:"workers,omitempty"`
	Ops         []jsonOp `json:"ops"`
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	jt := jsonTrace{Name: t.Name, Description: t.Description, Workers: t.Workers}
	for _, op := range t.Ops {
		jt.Ops = append(jt.Ops, jsonOp{
			Kind: op.Kind.String(), Limbs: op.Limbs, Count: op.Count, Tag: op.Tag,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jt)
}

// ReadJSON parses a trace, validating kinds, limbs and counts.
func ReadJSON(r io.Reader) (*Trace, error) {
	var jt jsonTrace
	if err := json.NewDecoder(r).Decode(&jt); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if jt.Name == "" {
		return nil, fmt.Errorf("trace: missing name")
	}
	t := &Trace{Name: jt.Name, Description: jt.Description, Workers: jt.Workers}
	for i, op := range jt.Ops {
		kind, ok := KindByName(op.Kind)
		if !ok {
			return nil, fmt.Errorf("trace: op %d: unknown kind %q", i, op.Kind)
		}
		if op.Limbs < 1 {
			return nil, fmt.Errorf("trace: op %d: limbs %d must be ≥ 1", i, op.Limbs)
		}
		if op.Count <= 0 {
			return nil, fmt.Errorf("trace: op %d: count %g must be positive", i, op.Count)
		}
		t.AddTagged(kind, op.Limbs, op.Count, op.Tag)
	}
	return t, nil
}

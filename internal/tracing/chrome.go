package tracing

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event export: each trace becomes one "thread" of complete
// ("ph":"X") events, so Perfetto / chrome://tracing renders the span
// trees as stacked timelines. Timestamps are microseconds with
// fractional nanosecond precision, offset from the earliest trace so the
// viewport opens on the data.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace renders the traces a /debug/requests?format=chrome
// request selects as Chrome trace_event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing.
func writeChromeTrace(w io.Writer, traces []*Finished) error {
	var base int64
	for _, f := range traces {
		if f == nil {
			continue
		}
		if base == 0 || f.StartNs < base {
			base = f.StartNs
		}
	}
	events := make([]chromeEvent, 0, 2*len(traces))
	for i, f := range traces {
		if f == nil {
			continue
		}
		tid := i + 1
		label := fmt.Sprintf("%s %s", f.Name, f.TraceID)
		if f.Err != "" {
			label += " [ERR]"
		}
		events = append(events, chromeEvent{
			Name: "thread_name",
			Ph:   "M",
			Pid:  1,
			Tid:  tid,
			Args: map[string]any{"name": label},
		})
		for _, sp := range f.Spans {
			args := map[string]any{"trace_id": f.TraceID}
			if sp.Limbs > 0 {
				args["level"] = sp.Limbs - 1
			}
			if sp.Err != "" {
				args["err"] = sp.Err
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			dur := sp.DurNs
			if dur < 0 {
				dur = 0
			}
			events = append(events, chromeEvent{
				Name: sp.Name,
				Ph:   "X",
				Pid:  1,
				Tid:  tid,
				Ts:   float64(sp.StartNs-base) / 1e3,
				Dur:  float64(dur) / 1e3,
				Args: args,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

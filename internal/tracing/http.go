package tracing

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"net/url"
	"sort"
	"time"
)

// Handler serves the flight recorder at /debug/requests:
//
//	(default)        HTML summary — sampling stats plus one expandable
//	                 span tree per retained trace, newest first
//	?format=json     {"stats": RecorderStats, "traces": [Finished...]}
//	?format=chrome   Chrome trace_event JSON (pipe straight into Perfetto)
//	?trace=<32 hex>  restrict to one trace ID (none if it is not retained);
//	                 the HTML view's export links keep the filter
func (r *FlightRecorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		traces := r.Snapshot()
		id := req.URL.Query().Get("trace")
		if id != "" {
			traces = []*Finished{}
			if f := r.Find(id); f != nil {
				traces = []*Finished{f}
			}
		}
		switch req.URL.Query().Get("format") {
		case "json":
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(map[string]any{
				"stats":  r.Stats(),
				"traces": traces,
			})
		case "chrome":
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("Content-Disposition", `attachment; filename="poseidon-trace.json"`)
			writeChromeTrace(w, traces)
		default:
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeHTML(w, r.Stats(), traces, id)
		}
	})
}

// exportLink is the href of a format=<format> export of the trace with ID
// id, or of every retained trace when id is empty.
func exportLink(format, id string) string {
	q := url.Values{"format": {format}}
	if id != "" {
		q.Set("trace", id)
	}
	return html.EscapeString("?" + q.Encode())
}

func writeHTML(w http.ResponseWriter, st RecorderStats, traces []*Finished, id string) {
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><title>poseidon flight recorder</title><style>
body{font-family:monospace;margin:1.5em;background:#fafafa}
table{border-collapse:collapse}td,th{padding:2px 10px;text-align:left}
details{margin:4px 0}summary{cursor:pointer}
.err{color:#b00020}.slow{color:#b36b00}.sampled{color:#555}
.bar{display:inline-block;height:9px;background:#4a90d9;vertical-align:middle}
.lvl{color:#888}</style></head><body><h2>flight recorder</h2>`)
	fmt.Fprintf(w, `<p>offered %d · kept %d error / %d slow / %d sampled · dropped %d · slow&ge;%s · sample 1/%d · ring %d
 · <a href="%s">json</a> · <a href="%s">chrome trace</a></p>`,
		st.Total, st.KeptError, st.KeptSlow, st.KeptSampled, st.Dropped,
		time.Duration(st.SlowThresholdNs), st.SampleEvery, st.Capacity,
		exportLink("json", id), exportLink("chrome", id))
	for _, f := range traces {
		cls := f.Keep
		if cls == "" {
			cls = "sampled"
		}
		status := fmt.Sprintf("%d", f.Status)
		if f.Err != "" {
			status += " " + html.EscapeString(f.Err)
		}
		fmt.Fprintf(w, `<details><summary><span class=%q>[%s]</span> %s <b>%s</b> %s · %v · coverage %.0f%% · <a href="%s">chrome trace</a></summary><table>`,
			cls, cls, time.Unix(0, f.StartNs).Format("15:04:05.000"),
			html.EscapeString(f.Name), f.TraceID, time.Duration(f.DurNs), 100*f.Coverage(),
			exportLink("chrome", f.TraceID))
		fmt.Fprintf(w, "<tr><th></th><th>span</th><th>dur</th><th>offset</th><th>attrs</th></tr>")
		writeSpanRows(w, f, 0, 0)
		fmt.Fprintf(w, "<tr><td></td><td>status</td><td colspan=3>%s</td></tr></table></details>\n", status)
	}
	fmt.Fprintf(w, "</body></html>")
}

// writeSpanRows renders the span tree depth-first under parent.
func writeSpanRows(w http.ResponseWriter, f *Finished, parent SpanRef, depth int) {
	if depth > 16 {
		return
	}
	children := make([]Span, 0, 8)
	for _, sp := range f.Spans {
		if sp.Parent == parent && sp.Ref != parent {
			children = append(children, sp)
		}
	}
	sort.Slice(children, func(i, j int) bool { return children[i].StartNs < children[j].StartNs })
	for _, sp := range children {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "&nbsp;&nbsp;"
		}
		width := 1
		if f.DurNs > 0 {
			width = int(200 * sp.DurNs / f.DurNs)
			if width < 1 {
				width = 1
			}
		}
		attrs := ""
		if sp.Limbs > 0 {
			attrs += fmt.Sprintf(`<span class=lvl>level=%d</span> `, sp.Limbs-1)
		}
		for _, a := range sp.Attrs {
			attrs += html.EscapeString(a.Key) + "=" + html.EscapeString(a.Value) + " "
		}
		name := html.EscapeString(sp.Name)
		if sp.Err != "" {
			name = `<span class=err>` + name + " ✗</span>"
			attrs += `<span class=err>` + html.EscapeString(sp.Err) + "</span>"
		}
		fmt.Fprintf(w, `<tr><td><span class=bar style="width:%dpx"></span></td><td>%s%s</td><td>%v</td><td>+%v</td><td>%s</td></tr>`,
			width, indent, name, time.Duration(sp.DurNs), time.Duration(sp.StartNs-f.StartNs), attrs)
		writeSpanRows(w, f, sp.Ref, depth+1)
	}
}

package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one entry in the Chrome trace-event format's traceEvents
// array — the subset of the spec that about:tracing and Perfetto both load:
// "X" complete events carry a start (ts) and duration (dur) in microseconds;
// "M" metadata events name the rows.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the records — typically every leg of one trace ID, as
// returned by TraceByID — as Chrome trace-event JSON loadable in
// about:tracing or https://ui.perfetto.dev. Each leg becomes one timeline
// row (tid): a named row header, an enclosing event for the leg's total, and
// one event per span. Timestamps are absolute wall-clock microseconds, so
// legs recorded by one process line up on a shared axis. Scrape-path code:
// allocates freely.
func WriteChrome(w io.Writer, recs []Record) error {
	events := make([]chromeEvent, 0, 2*len(recs)+8)
	for i := range recs {
		r := &recs[i]
		tid := i + 1
		legName := fmt.Sprintf("leg %d", tid)
		if r.Err {
			legName += " (err)"
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": legName},
		})
		args := map[string]any{"trace_id": fmt.Sprintf("%016x", r.ID)}
		if r.Err {
			args["err"] = true
		}
		if r.Dropped > 0 {
			args["dropped_spans"] = r.Dropped
		}
		events = append(events, chromeEvent{
			Name: "request", Ph: "X",
			Ts:  float64(r.Start) / 1e3,
			Dur: float64(r.Dur) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
		for j := 0; j < r.N && j < MaxSpans; j++ {
			sp := r.Spans[j]
			name := sp.Stage.String()
			var sargs map[string]any
			if sp.Arg != 0 || sp.Stage == StageScatter {
				sargs = map[string]any{"arg": sp.Arg}
			}
			events = append(events, chromeEvent{
				Name: name, Ph: "X",
				Ts:  float64(r.Start+sp.Start) / 1e3,
				Dur: float64(sp.Dur) / 1e3,
				Pid: 1, Tid: tid, Args: sargs,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"scimpich/internal/obs/flight"
)

// Chrome trace-event JSON export: the JSON Object Format of the Trace
// Event spec (one {"traceEvents": [...]} object), loadable in
// chrome://tracing and Perfetto. Spans become complete ("X") events with
// microsecond timestamps on one thread per actor; the flight recorder's
// events become instant ("i") events on the thread of the same actor,
// rendered by flight.FormatEvent; actor names are emitted as thread_name
// metadata.

// ChromeEvent is one entry of the traceEvents array (both what we write
// and what tracestat reads back).
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// ChromeOther is the exporter metadata carried in the file's otherData
// field: how many spans the trace ring and how many events the flight rings
// evicted before the export, so downstream consumers can tell a complete
// trace from a truncated one.
type ChromeOther struct {
	DroppedSpans  int64 `json:"droppedSpans,omitempty"`
	DroppedEvents int64 `json:"droppedEvents,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	OtherData       *ChromeOther  `json:"otherData,omitempty"`
}

// usPerNs converts virtual-time nanoseconds to trace-event microseconds.
const usPerNs = 1e-3

// WriteChrome writes the trace's spans and the snapshot of rec (nil: spans
// only) as Chrome trace-event JSON. Open (never-ended) spans are dropped.
// The export is a snapshot: tracing and recording may continue afterwards.
func (t *Trace) WriteChrome(w io.Writer, rec *flight.Recorder) error {
	if t == nil {
		return fmt.Errorf("obs: WriteChrome on a nil trace")
	}
	var evs []ChromeEvent
	tids := map[string]int{}
	tid := func(actor string) int { // one named thread per actor, in first-seen order
		id, ok := tids[actor]
		if !ok {
			id = len(tids)
			tids[actor] = id
			evs = append(evs, ChromeEvent{Name: "thread_name", Ph: "M", Tid: id, Args: map[string]any{"name": actor}})
		}
		return id
	}
	for _, s := range t.Spans() {
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Bytes != 0 {
			args["bytes"] = s.Bytes
		}
		if s.Detail != "" {
			args["detail"] = s.Detail
		}
		id := tid(s.Actor)
		evs = append(evs, ChromeEvent{
			Name: s.Name, Cat: s.Category, Ph: "X",
			Ts: float64(s.Start) * usPerNs, Dur: float64(s.EndAt-s.Start) * usPerNs,
			Tid: id, Args: args,
		})
	}
	other := ChromeOther{DroppedSpans: t.DroppedSpans()}
	if d := rec.Snapshot(""); d != nil {
		for _, ad := range d.Actors {
			id := tid(ad.Actor)
			for _, e := range ad.Events {
				evs = append(evs, ChromeEvent{
					Name: flight.FormatEvent(e), Cat: e.Kind, Ph: "i", S: "t",
					Ts: float64(e.At) * usPerNs, Tid: id,
				})
			}
		}
		other.DroppedEvents = int64(d.TotalDropped())
	}
	f := chromeFile{TraceEvents: evs, DisplayTimeUnit: "ns"}
	if other != (ChromeOther{}) {
		f.OtherData = &other
	}
	return json.NewEncoder(w).Encode(f)
}

// ReadChrome parses a Chrome trace-event JSON file (the object format
// WriteChrome emits; a bare traceEvents array is accepted too) and returns
// its events and the exporter metadata. A file without otherData (including
// the bare-array form) yields a zero ChromeOther.
func ReadChrome(r io.Reader) ([]ChromeEvent, ChromeOther, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, ChromeOther{}, err
	}
	var f chromeFile
	if err := json.Unmarshal(data, &f); err == nil && f.TraceEvents != nil {
		var other ChromeOther
		if f.OtherData != nil {
			other = *f.OtherData
		}
		return f.TraceEvents, other, nil
	}
	var evs []ChromeEvent
	if err := json.Unmarshal(data, &evs); err != nil {
		return nil, ChromeOther{}, fmt.Errorf("obs: not a Chrome trace-event file: %w", err)
	}
	return evs, ChromeOther{}, nil
}

package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Dump is a recorder snapshot: the last-N window of every actor, actors
// sorted by name. The encoding contains only virtual times and values
// derived from the simulation, so for a fixed fault seed two runs produce
// byte-identical dumps (the determinism tests pin this).
type Dump struct {
	Reason string      `json:"reason,omitempty"`
	Cap    int         `json:"cap"`
	Actors []ActorDump `json:"actors"`
}

// ActorDump is one actor's retained window.
type ActorDump struct {
	Actor   string      `json:"actor"`
	Dropped uint64      `json:"dropped,omitempty"`
	Events  []DumpEvent `json:"events"`
}

// DumpEvent is the JSON form of Event. At is virtual nanoseconds.
type DumpEvent struct {
	At   int64  `json:"at"`
	Seq  uint64 `json:"seq"`
	Kind string `json:"k"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
	C    int64  `json:"c,omitempty"`
	D    int64  `json:"d,omitempty"`
}

// KindOf decodes the event kind name.
func (e DumpEvent) KindOf() Kind { return KindFromName(e.Kind) }

// WriteJSON encodes the dump deterministically (struct field order, sorted
// actors, indented for human diffing).
func (d *Dump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// Actor returns the named actor's window, nil when absent.
func (d *Dump) Actor(name string) *ActorDump {
	for i := range d.Actors {
		if d.Actors[i].Actor == name {
			return &d.Actors[i]
		}
	}
	return nil
}

// TotalEvents counts retained events across all actors.
func (d *Dump) TotalEvents() int {
	n := 0
	for i := range d.Actors {
		n += len(d.Actors[i].Events)
	}
	return n
}

// TotalDropped sums ring evictions across all actors.
func (d *Dump) TotalDropped() uint64 {
	var n uint64
	for i := range d.Actors {
		n += d.Actors[i].Dropped
	}
	return n
}

// ReadDump decodes a dump written by WriteJSON.
func ReadDump(r io.Reader) (*Dump, error) {
	var d Dump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("flight: decoding dump: %w", err)
	}
	return &d, nil
}

// ReadDumpFile reads a dump from path ("-" for stdin).
func ReadDumpFile(path string) (*Dump, error) {
	if path == "-" {
		return ReadDump(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDump(f)
}

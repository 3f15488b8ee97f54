package obs

import (
	"fmt"
	"time"
)

// Span is one timed operation on the timeline. Spans on the same actor
// nest: a span started while another is open becomes its child, so a
// rendezvous send shows its pack and chunk phases as one tree. A nil span
// is a no-op.
type Span struct {
	ID     int64
	Parent int64 // 0 = root
	Actor  string
	// Category groups spans for aggregation ("send", "osc", "pack", ...);
	// Name is the operation ("rdv", "epoch", "direct_pack_ff", ...).
	Category string
	Name     string
	Detail   string
	Start    time.Duration
	EndAt    time.Duration
	// Bytes is the payload the span moved (0 if not a data operation).
	Bytes int64

	tr    *Trace
	ended bool
}

// Trace collects span trees, timestamped in virtual time. Point events
// (sends, matches, faults) are not its business: the flight recorder
// (internal/obs/flight) is the one event log, and WriteChrome merges its
// rings into the export. Like every obs sink it belongs to one run at a
// time (see the package comment); the nil trace discards everything at zero
// cost.
//
// With limit > 0 the trace is a ring buffer: the most recent limit spans
// are retained and older ones are dropped.
type Trace struct {
	limit  int
	nextID int64

	spans  []*Span
	sphead int
	spdrop int64
	open   map[string][]*Span // per-actor stack of open spans
}

// NewTrace returns a trace retaining at most limit spans (0 = unlimited).
// When full, the oldest spans are dropped.
func NewTrace(limit int) *Trace {
	return &Trace{limit: limit, open: make(map[string][]*Span)}
}

// StartSpan opens a span at virtual time at. If the actor already has an
// open span, the new one becomes its child. End the span with Span.End;
// spans never ended are dropped at export time. A nil trace returns a nil
// span and allocates nothing.
func (t *Trace) StartSpan(at time.Duration, actor, category, name string) *Span {
	if t == nil {
		return nil
	}
	t.nextID++
	s := &Span{
		ID: t.nextID, Actor: actor, Category: category, Name: name,
		Start: at, tr: t,
	}
	if stack := t.open[actor]; len(stack) > 0 {
		s.Parent = stack[len(stack)-1].ID
	}
	t.open[actor] = append(t.open[actor], s)
	return s
}

// SetBytes records the span's payload size. No-op on a nil span.
func (s *Span) SetBytes(n int64) {
	if s != nil {
		s.Bytes = n
	}
}

// SetDetail attaches a formatted annotation. No-op on a nil span.
func (s *Span) SetDetail(format string, args ...any) {
	if s == nil {
		return
	}
	s.Detail = fmt.Sprintf(format, args...)
}

// End closes the span at virtual time at. Ending a span twice is a no-op,
// so `defer sp.End(...)` composes with early explicit ends.
func (s *Span) End(at time.Duration) {
	if s == nil || s.ended {
		return
	}
	t := s.tr
	s.ended = true
	s.EndAt = at
	// Pop from the actor stack (normally the top; tolerate out-of-order
	// ends by searching down).
	stack := t.open[s.Actor]
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i] == s {
			stack = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	t.open[s.Actor] = stack
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.spans[t.sphead] = s
		t.sphead = (t.sphead + 1) % t.limit
		t.spdrop++
	} else {
		t.spans = append(t.spans, s)
	}
}

// DroppedSpans returns how many completed spans the ring has evicted.
func (t *Trace) DroppedSpans() int64 {
	if t == nil {
		return 0
	}
	return t.spdrop
}

// Spans returns the retained completed spans, in completion order (oldest
// first). The returned spans are shared; treat them as read-only.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	if len(t.spans) == 0 {
		return nil
	}
	out := make([]*Span, 0, len(t.spans))
	out = append(out, t.spans[t.sphead:]...)
	out = append(out, t.spans[:t.sphead]...)
	return out
}

// Duration of the span (0 while open).
func (s *Span) Duration() time.Duration {
	if s == nil || !s.ended {
		return 0
	}
	return s.EndAt - s.Start
}

package mpi

import (
	"fmt"

	"scimpich/internal/datatype"
)

// ProtocolError reports an out-of-protocol control packet: the sender
// waited for one control kind and received another (e.g. an injected
// duplicate CTS where a chunk ack was due). It degrades the operation
// instead of crashing the rank.
type ProtocolError struct {
	Want, Got string // envelope kinds
	From, To  int    // the pair, sender first
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("mpi: protocol error on pair %d->%d: expected %s, got %s",
		e.From, e.To, e.Want, e.Got)
}

// CancelledError completes a posted receive whose rendezvous the sender
// cancelled after a permanent deposit failure (envRdvCancel). The
// sender's own Send call returns the underlying transfer error.
type CancelledError struct {
	Sender int
	ReqID  int64
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("mpi: rendezvous %d cancelled by sender %d", e.ReqID, e.Sender)
}

// ArgumentError reports invalid arguments to an MPI call (a non-reducible
// datatype passed to a reduction, an out-of-range root, source or
// destination, a buffer that cannot hold its count: CheckBuffer).
type ArgumentError struct {
	Call   string // the API entry point, e.g. "Reduce"
	Reason string
}

func (e *ArgumentError) Error() string {
	return fmt.Sprintf("mpi: %s: %s", e.Call, e.Reason)
}

// CheckBuffer refuses, as an *ArgumentError naming call, a buffer that
// cannot hold count elements of dt: a negative count, a datatype with a
// negative lower bound (its first bytes would lie before buf) or a buf
// shorter than the last byte of the count elements' type map. role names
// the buffer in the reason. Every call that takes a user buffer checks it
// before anything is sent or posted, and osc checks the origin buffer of
// its data operations with it.
func CheckBuffer(call, role string, buf []byte, count int, dt *datatype.Type) error {
	switch {
	case count < 0:
		return argErrf(call, "negative count %d", count)
	case count == 0:
		return nil
	case dt.LB() < 0:
		return argErrf(call, "datatype %s has a negative lower bound %d", dt, dt.LB())
	}
	if need := dt.LB() + dt.Span(count); int64(len(buf)) < need {
		return argErrf(call, "%s of %d bytes cannot hold %d elements of %s (%d bytes)", role, len(buf), count, dt, need)
	}
	return nil
}

// argErrf builds an *ArgumentError with a formatted reason.
func argErrf(call, format string, args ...any) *ArgumentError {
	return &ArgumentError{Call: call, Reason: fmt.Sprintf(format, args...)}
}

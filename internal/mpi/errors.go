package mpi

import "fmt"

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
// datatype passed to a reduction, mismatched counts/displs lengths, an
// out-of-range root or destination, a synchronous send to self).
type ArgumentError struct {
	Call   string // the API entry point, e.g. "Reduce"
	Reason string
}

func (e *ArgumentError) Error() string {
	return fmt.Sprintf("mpi: %s: %s", e.Call, e.Reason)
}

// argErrf builds an *ArgumentError with a formatted reason.
func argErrf(call, format string, args ...any) *ArgumentError {
	return &ArgumentError{Call: call, Reason: fmt.Sprintf(format, args...)}
}

package sci

import (
	"fmt"

	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// Connection failure (paper §2): "although a shared address space is
// provided, SCI is still a network in which single nodes may fail or
// physical connections may be disturbed (i.e. by plugging a cable). This
// makes a connection monitoring and transfer checking necessary, which is
// not required for intra-node shared memory communication."
//
// The model lets tests and experiments fail a node; transfers toward it
// then error out at the adapter level after bounded retries
// (tryReachable), and the transfer-check barrier (Mapping.CheckedSync)
// reports a lost connection. Layers above detect a failure from those typed
// errors; no daemon probes the peers.

// FailNode marks a node as unreachable (cable pulled / node crashed).
func (ic *Interconnect) FailNode(n int) {
	ic.nodes[n].dead = true
}

// RestoreNode brings a failed node back.
func (ic *Interconnect) RestoreNode(n int) {
	ic.nodes[n].dead = false
}

// RevokeSegment withdraws an exported segment mid-run (the driver unmaps
// it): existing mappings fail subsequent accesses with ErrSegmentLost and
// new imports no longer find it.
func (ic *Interconnect) RevokeSegment(owner, segID int) {
	n := &ic.nodes[owner]
	if seg := n.segment(segID); seg != nil {
		seg.revoked = true
		n.segs[segID] = nil
	}
}

// Alive reports whether the node is reachable.
func (ic *Interconnect) Alive(n int) bool { return !ic.nodes[n].dead }

// ErrConnectionLost is returned when a transfer exhausts its retries
// against an unreachable node. The MPI layer treats this as a fatal
// communication error, as real SCI-MPICH does after its transfer checking
// gives up.
type ErrConnectionLost struct {
	From, To int
}

func (e ErrConnectionLost) Error() string {
	return fmt.Sprintf("sci: connection from node %d to node %d lost", e.From, e.To)
}

// maxTransferRetries bounds the retries of one transfer toward a failed
// node or across a disturbed link.
const maxTransferRetries = 3

// tryReachable enforces reachability on the data path: transfers toward a
// failed node retry maxTransferRetries times (costing RetryLatency each)
// and then fail with ErrConnectionLost.
func (n *Node) tryReachable(p *sim.Proc, target *Node) error {
	if !target.dead {
		return nil
	}
	for i := 0; i < maxTransferRetries; i++ {
		n.stats.Retries++
		p.Sleep(RetryLatency)
		if !target.dead {
			return nil // the connection came back mid-retry
		}
	}
	n.surfaceFault(p.Now(), fault.NodeUnreachable, target.id, maxTransferRetries)
	return ErrConnectionLost{From: n.id, To: target.id}
}

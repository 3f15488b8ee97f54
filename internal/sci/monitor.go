package sci

import (
	"fmt"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// Connection monitoring (paper §2): "although a shared address space is
// provided, SCI is still a network in which single nodes may fail or
// physical connections may be disturbed (i.e. by plugging a cable). This
// makes a connection monitoring and transfer checking necessary, which is
// not required for intra-node shared memory communication."
//
// The model lets tests and experiments fail a node; transfers toward it
// then error out at the adapter level after bounded retries, while the
// monitor daemon detects the failure by probing.

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
	n := ic.nodes[owner]
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

// CheckConnection probes the path to a target node: a small remote write
// followed by a read-back of the probe cell. It returns whether the target
// responded and the measured round-trip time. This is the building block
// of the monitor daemon.
func (n *Node) CheckConnection(p *sim.Proc, target int) (bool, time.Duration) {
	cfg := &n.ic.Cfg
	start := p.Now()
	// Probe write + stalled read-back.
	p.Sleep(cfg.WriteIssueOverhead + cfg.PIOWriteLatency + cfg.PIOReadStall)
	if n.ic.nodes[target].dead {
		// The read-back times out (modelled as an extra stall).
		p.Sleep(cfg.PIOReadStall * 4)
		return false, p.Now() - start
	}
	return true, p.Now() - start
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
		p.Sleep(n.ic.Cfg.RetryLatency)
		if !target.dead {
			return nil // the connection came back mid-retry
		}
	}
	n.surfaceFault(p.Now(), fault.NodeUnreachable, target.id, maxTransferRetries)
	return ErrConnectionLost{From: n.id, To: target.id}
}

// MonitorEvent records a connectivity change observed by a Monitor.
type MonitorEvent struct {
	At     time.Duration
	Target int
	Alive  bool
}

// Monitor is a connection-monitoring daemon on one node: it probes the
// given peers at a fixed interval and records state transitions.
type Monitor struct {
	node     *Node
	peers    []int
	interval time.Duration
	stopped  bool
	stopCh   *sim.Chan

	state  map[int]bool
	Events []MonitorEvent
}

// Stop ends the monitoring loop. It is safe to call from any proc (or an
// event callback) and is idempotent: the request is posted on a channel
// the daemon drains, and a probe sweep in progress terminates at the next
// peer boundary. Without a Stop the daemon polls forever, which keeps the
// simulation alive.
func (m *Monitor) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	sim.Post(m.stopCh, struct{}{})
}

// StartMonitor launches the daemon. It probes each peer every interval and
// appends an event whenever a peer's reachability changes.
func (n *Node) StartMonitor(peers []int, interval time.Duration) *Monitor {
	m := &Monitor{
		node:     n,
		peers:    peers,
		interval: interval,
		stopCh:   sim.NewChan(1),
		state:    make(map[int]bool),
	}
	for _, t := range peers {
		m.state[t] = true
	}
	n.ic.E.GoDaemon(fmt.Sprintf("monitor%d", n.id), m.run).Wake()
	return m
}

func (m *Monitor) run(p *sim.Proc) {
	for {
		if _, stop := p.RecvTimeout(m.stopCh, m.interval); stop {
			return
		}
		for _, t := range m.peers {
			if m.stopped {
				// Stop arrived mid-sweep (possibly while a probe toward a
				// dead peer was stalling); abandon the rest of the sweep.
				return
			}
			alive, _ := m.node.CheckConnection(p, t)
			if alive != m.state[t] {
				m.state[t] = alive
				m.Events = append(m.Events, MonitorEvent{At: p.Now(), Target: t, Alive: alive})
			}
		}
	}
}

// Status returns the last known reachability of a peer.
func (m *Monitor) Status(target int) bool { return m.state[target] }

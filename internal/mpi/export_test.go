package mpi

import (
	"scimpich/internal/fault"
	"scimpich/internal/flow"
)

// FlowStats returns the counts of the world's flow networks: the node buses',
// then, on an inter-node world, the SCI ring's.
func (w *World) FlowStats() []flow.Stats {
	s := []flow.Stats{w.buses[0].Network().Stats()}
	if w.ic != nil {
		s = append(s, w.ic.Net.Stats())
	}
	return s
}

// FaultsInjected returns the interconnect's fault counts by kind (zero on a
// single node).
func (w *World) FaultsInjected() (n [fault.Kinds]int64) {
	if w.ic != nil {
		n = w.ic.Faults()
	}
	return n
}

// Nodes returns the number of nodes the world runs on.
func (w *World) Nodes() int { return w.cfg.Nodes }

// Package ring models the topology of a single SCI ringlet: N nodes joined
// by N unidirectional point-to-point links ("segments"). A transfer from
// node a to node b occupies every segment from a around the ring to b, which
// is what makes segment utilization (the number of concurrent transfers per
// segment) the scalability-limiting quantity studied in the paper's Table 2.
package ring

import (
	"fmt"

	"scimpich/internal/flow"
)

// MiB is one mebibyte, the bandwidth unit used throughout the paper.
const MiB = 1 << 20

// DefaultLinkMHz is the default SCI link frequency used in the paper's
// experiments (166 MHz, nominal ring bandwidth 633 MiB/s). The paper also
// reruns the saturation experiment at 200 MHz (762 MiB/s).
const DefaultLinkMHz = 166

// BandwidthForMHz returns the nominal link bandwidth in bytes/second for an
// SCI link clocked at the given frequency. Calibrated to the paper: 166 MHz
// yields 633 MiB/s and the measured bandwidth "increased linearly with the
// ring bandwidth" at 200 MHz (762 MiB/s).
func BandwidthForMHz(mhz float64) float64 {
	return mhz / 166.0 * 633.0 * MiB
}

// Topology is a single SCI ringlet.
type Topology struct {
	n     int
	links []flow.Link
}

// New builds a ringlet of n nodes with the given per-segment bandwidth in
// bytes/second. model may be nil for ideal links. The links are one slab.
func New(n int, linkBW float64, model flow.CongestionModel) *Topology {
	if n < 1 {
		panic("ring: need at least one node")
	}
	t := Over(flow.NewLinks(n, linkBW, model))
	return &t
}

// Over returns the ringlet whose segments are links, link i leaving node i.
// The links stay the caller's: a machine of many ringlets cuts all of theirs
// from one slab.
func Over(links []flow.Link) Topology {
	if len(links) < 1 {
		panic("ring: need at least one node")
	}
	return Topology{n: len(links), links: links}
}

// Link returns the segment leaving node i (toward node (i+1) mod n).
func (t *Topology) Link(i int) *flow.Link { return &t.links[i] }

// Route returns the segments a transfer from node a to node b traverses,
// in order. A self-route (a == b) is empty: local accesses never enter the
// ring. Panics on out-of-range nodes.
func (t *Topology) Route(a, b int) []*flow.Link {
	t.checkPair(a, b)
	var path []*flow.Link
	for i := a; i != b; i = (i + 1) % t.n {
		path = append(path, &t.links[i])
	}
	return path
}

// AppendHops appends Route(a, b) to dst as weight-1 hops and returns the
// extended slice: the form for a caller that lays many routes into one
// table.
func (t *Topology) AppendHops(dst []flow.Hop, a, b int) []flow.Hop {
	t.checkPair(a, b)
	for i := a; i != b; i = (i + 1) % t.n {
		dst = append(dst, flow.Hop{Link: &t.links[i], Weight: 1})
	}
	return dst
}

func (t *Topology) checkPair(a, b int) {
	if a < 0 || a >= t.n || b < 0 || b >= t.n {
		panic(fmt.Sprintf("ring: route %d->%d outside ring of %d", a, b, t.n))
	}
}

// FullLoop returns all n segments starting at node a — the worst-case
// pattern used for the maximal segment-utilization experiment in Table 2
// (every transfer crosses every segment).
func (t *Topology) FullLoop(a int) []*flow.Link {
	path := make([]*flow.Link, 0, t.n)
	for i := 0; i < t.n; i++ {
		path = append(path, &t.links[(a+i)%t.n])
	}
	return path
}

// Distance returns the number of segments between nodes a and b.
func (t *Topology) Distance(a, b int) int {
	d := (b - a) % t.n
	if d < 0 {
		d += t.n
	}
	return d
}

// Package torus models a 3-D torus of SCI ringlets — the paper's §6
// scaling outlook: "With the increased link frequency, a limit of 8 nodes
// per ringlet seems reasonable, which gives a 512 nodes system when using
// 3D-torus topology."
//
// Every node sits on three rings (one per dimension); a transfer uses
// dimension-ordered routing: along the x-ring to the target's x
// coordinate, then the y-ring, then the z-ring. Keeping each ringlet at 8
// nodes bounds the per-segment utilization regardless of machine size,
// which is exactly why the projection holds.
package torus

import (
	"fmt"
	"time"

	"scimpich/internal/flow"
	"scimpich/internal/ring"
)

// Topology is a dx x dy x dz torus of ringlets.
type Topology struct {
	dims [3]int
	// links holds every segment, dimension-major, then ringlet-major, then
	// by position: the order Segments enumerates.
	links []flow.Link
	// rings[d] holds one ringlet per line in dimension d, indexed by the
	// flattened coordinates of the other two dimensions. All three are cut
	// from one slab, each ringlet over its block of links.
	rings [3][]ring.Topology
}

// New builds the torus with the given per-segment bandwidth and congestion
// model (nil for ideal links). Its links are one slab and its ringlets are
// another.
func New(dx, dy, dz int, linkBW float64, model flow.CongestionModel) *Topology {
	if dx < 1 || dy < 1 || dz < 1 {
		panic("torus: dimensions must be positive")
	}
	t := &Topology{dims: [3]int{dx, dy, dz}}
	n := t.Nodes()
	// Dimension d's links are the block [d*n, (d+1)*n), ringlet after ringlet.
	t.links = flow.NewLinks(3*n, linkBW, model)
	rings := make([]ring.Topology, 0, n/dx+n/dy+n/dz)
	for d, k := range t.dims {
		start := len(rings)
		for off := d * n; off < (d+1)*n; off += k {
			rings = append(rings, ring.Over(t.links[off:off+k:off+k]))
		}
		t.rings[d] = rings[start:len(rings):len(rings)]
	}
	return t
}

// Nodes returns the machine size.
func (t *Topology) Nodes() int { return t.dims[0] * t.dims[1] * t.dims[2] }

// NodeID flattens coordinates (x fastest).
func (t *Topology) NodeID(x, y, z int) int {
	t.check(x, y, z)
	return x + t.dims[0]*(y+t.dims[1]*z)
}

// Coords unflattens a node id.
func (t *Topology) Coords(id int) (x, y, z int) {
	if id < 0 || id >= t.Nodes() {
		panic(fmt.Sprintf("torus: node %d outside machine of %d", id, t.Nodes()))
	}
	x = id % t.dims[0]
	y = (id / t.dims[0]) % t.dims[1]
	z = id / (t.dims[0] * t.dims[1])
	return
}

func (t *Topology) check(x, y, z int) {
	if x < 0 || x >= t.dims[0] || y < 0 || y >= t.dims[1] || z < 0 || z >= t.dims[2] {
		panic(fmt.Sprintf("torus: coordinates (%d,%d,%d) outside %v", x, y, z, t.dims))
	}
}

// lineIndex returns which ringlet of dimension d the node's line is.
func (t *Topology) lineIndex(d, x, y, z int) int {
	switch d {
	case 0:
		return y + t.dims[1]*z
	case 1:
		return x + t.dims[0]*z
	default:
		return x + t.dims[0]*y
	}
}

// leg is the part of a dimension-ordered route that runs on one ringlet.
type leg struct {
	r        *ring.Topology
	from, to int // positions on r
}

// legs returns the legs of the dimension-ordered route from node a to node
// b: x-ring first, then y, then z, skipping each dimension whose coordinate
// already matches. The current position updates as the route hops between
// rings.
func (t *Topology) legs(a, b int) (legs [3]leg, k int) {
	ax, ay, az := t.Coords(a)
	bx, by, bz := t.Coords(b)
	cur, target := [3]int{ax, ay, az}, [3]int{bx, by, bz}
	for d := 0; d < 3; d++ {
		if cur[d] == target[d] {
			continue
		}
		legs[k] = leg{&t.rings[d][t.lineIndex(d, cur[0], cur[1], cur[2])], cur[d], target[d]}
		k++
		cur[d] = target[d]
	}
	return legs, k
}

// Route returns the segments of the dimension-ordered path from node a to
// node b: x-ring first, then y, then z. A self-route is empty.
func (t *Topology) Route(a, b int) []*flow.Link {
	legs, k := t.legs(a, b)
	var path []*flow.Link
	for _, l := range legs[:k] {
		path = append(path, l.r.Route(l.from, l.to)...)
	}
	return path
}

// AppendHops appends Route(a, b) to dst as weight-1 hops and returns the
// extended slice: the form for a caller that lays many routes into one
// table.
func (t *Topology) AppendHops(dst []flow.Hop, a, b int) []flow.Hop {
	legs, k := t.legs(a, b)
	for _, l := range legs[:k] {
		dst = l.r.AppendHops(dst, l.from, l.to)
	}
	return dst
}

// HopCount returns the number of segments on the dimension-ordered path.
func (t *Topology) HopCount(a, b int) int {
	legs, k := t.legs(a, b)
	hops := 0
	for _, l := range legs[:k] {
		hops += l.r.Distance(l.from, l.to)
	}
	return hops
}

// Segment describes one torus link together with its global endpoint nodes
// and the dimension of the ring it belongs to.
type Segment struct {
	Link     *flow.Link
	Dim      int
	From, To int // global node ids
}

// Segments enumerates every link of the machine with its endpoints,
// dimension-major then ring-major then position — a deterministic order.
func (t *Topology) Segments() []Segment {
	dx, dy, dz := t.dims[0], t.dims[1], t.dims[2]
	segs := make([]Segment, 0, 3*t.Nodes())
	for d := 0; d < 3; d++ {
		for li := range t.rings[d] {
			for i := 0; i < t.dims[d]; i++ {
				var from, to int
				switch d {
				case 0:
					y, z := li%dy, li/dy
					from, to = t.NodeID(i, y, z), t.NodeID((i+1)%dx, y, z)
				case 1:
					x, z := li%dx, li/dx
					from, to = t.NodeID(x, i, z), t.NodeID(x, (i+1)%dy, z)
				default:
					x, y := li%dx, li/dx
					from, to = t.NodeID(x, y, i), t.NodeID(x, y, (i+1)%dz)
				}
				segs = append(segs, Segment{Link: t.rings[d][li].Link(i), Dim: d, From: from, To: to})
			}
		}
	}
	return segs
}

// SetLinkLatency sets the propagation latency of every segment of every
// ringlet (the lookahead source for partitioned simulations) and returns the
// topology for chained construction.
func (t *Topology) SetLinkLatency(d time.Duration) *Topology {
	for i := range t.links {
		t.links[i].SetLatency(d)
	}
	return t
}

// PartitionZ assigns every node to one of shards shards by contiguous
// blocks of z-planes: shard s owns planes [s*dz/shards, (s+1)*dz/shards).
// x- and y-rings lie entirely inside one z-plane, so only z-ring segments
// ever cross the partition — which makes the z-block partition the natural
// one for a conservative-parallel simulation of this machine. shards must
// divide dz so blocks are equal. The result maps node id to shard.
func (t *Topology) PartitionZ(shards int) []int {
	planes := PlanesPerShard(t.dims[2], shards)
	assign := make([]int, t.Nodes())
	for id := range assign {
		_, _, z := t.Coords(id)
		assign[id] = z / planes
	}
	return assign
}

// PlanesPerShard returns how many z-planes each of shards equal blocks of a
// dz-plane machine holds, and panics unless shards divides dz.
func PlanesPerShard(dz, shards int) int {
	if shards < 1 || dz%shards != 0 {
		panic(fmt.Sprintf("torus: %d shards do not evenly divide dz=%d", shards, dz))
	}
	return dz / shards
}

// CrossShardLinks returns the links whose segments join nodes assigned to
// different shards. flow.MinLatency over them is the conservative lookahead
// of the partition.
func (t *Topology) CrossShardLinks(assign []int) []*flow.Link {
	if len(assign) != t.Nodes() {
		panic("torus: assignment length does not match machine size")
	}
	var links []*flow.Link
	for _, s := range t.Segments() {
		if assign[s.From] != assign[s.To] {
			links = append(links, s.Link)
		}
	}
	return links
}

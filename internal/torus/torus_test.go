package torus

import (
	"slices"
	"testing"

	"scimpich/internal/flow"
	"scimpich/internal/ring"
)

func TestCoordsRoundTrip(t *testing.T) {
	to := New(4, 3, 2, 633*ring.MiB, nil)
	if to.Nodes() != 24 {
		t.Fatalf("nodes = %d, want 24", to.Nodes())
	}
	for id := 0; id < to.Nodes(); id++ {
		x, y, z := to.Coords(id)
		if to.NodeID(x, y, z) != id {
			t.Fatalf("coords round trip failed for %d -> (%d,%d,%d)", id, x, y, z)
		}
	}
}

func TestSelfRouteEmpty(t *testing.T) {
	to := New(3, 3, 3, 633*ring.MiB, nil)
	if len(to.Route(13, 13)) != 0 {
		t.Error("self route not empty")
	}
}

func TestDimensionOrderedRouting(t *testing.T) {
	to := New(4, 4, 4, 633*ring.MiB, nil)
	a := to.NodeID(0, 0, 0)
	b := to.NodeID(2, 3, 1)
	// Ring distances: x 2 hops, y 3 hops, z 1 hop = 6 segments.
	if got := to.HopCount(a, b); got != 6 {
		t.Errorf("hop count = %d, want 6", got)
	}
	// Single-dimension moves stay on one ring.
	c := to.NodeID(3, 0, 0)
	if got := to.HopCount(a, c); got != 3 {
		t.Errorf("x-only hop count = %d, want 3 (ring distance)", got)
	}
}

func TestRingsAreDisjointLines(t *testing.T) {
	to := New(2, 2, 2, 633*ring.MiB, nil)
	// Routes within different x-lines must not share links.
	p1 := to.Route(to.NodeID(0, 0, 0), to.NodeID(1, 0, 0))
	p2 := to.Route(to.NodeID(0, 1, 0), to.NodeID(1, 1, 0))
	for _, l1 := range p1 {
		for _, l2 := range p2 {
			if l1 == l2 {
				t.Fatal("distinct x-lines share a link")
			}
		}
	}
}

func TestRouteReachesEveryPair(t *testing.T) {
	to := New(3, 2, 2, 633*ring.MiB, nil)
	n := to.Nodes()
	maxHops := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			h := to.HopCount(a, b)
			if a == b && h != 0 {
				t.Fatalf("self route %d has %d hops", a, h)
			}
			if a != b && h == 0 {
				t.Fatalf("no route %d -> %d", a, b)
			}
			if h > maxHops {
				maxHops = h
			}
		}
	}
	// Diameter of unidirectional rings: sum of (dim-1).
	if want := 2 + 1 + 1; maxHops != want {
		t.Errorf("diameter = %d, want %d", maxHops, want)
	}
}

func TestInvalidArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"dims":   func() { New(0, 2, 2, 1, nil) },
		"coords": func() { New(2, 2, 2, 1, nil).NodeID(2, 0, 0) },
		"id":     func() { New(2, 2, 2, 1, nil).Coords(8) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestHopCountAndAppendHopsMatchRoute: on every pair of a 3x4x5 torus the
// hop count is the route's length and the appended hops are the route's
// links, in order, at weight 1.
func TestHopCountAndAppendHopsMatchRoute(t *testing.T) {
	to := New(3, 4, 5, 633*ring.MiB, nil)
	prefix := []flow.Hop{{Weight: 2}}
	for a := 0; a < to.Nodes(); a++ {
		for b := 0; b < to.Nodes(); b++ {
			route := to.Route(a, b)
			if got := to.HopCount(a, b); got != len(route) {
				t.Fatalf("%d->%d: hop count %d, route has %d segments", a, b, got, len(route))
			}
			hops := to.AppendHops(prefix[:1:1], a, b)
			if !slices.Equal(hops[1:], flow.Path(route...)) || hops[0] != prefix[0] {
				t.Fatalf("%d->%d: appended hops %v, want %v after the prefix", a, b, hops, route)
			}
		}
	}
}

// TestHopCountAllocFree: counting a route's hops builds no route.
func TestHopCountAllocFree(t *testing.T) {
	to := New(3, 4, 5, 633*ring.MiB, nil)
	if n := testing.AllocsPerRun(10, func() { to.HopCount(0, to.Nodes()-1) }); n != 0 {
		t.Errorf("HopCount allocates %v objects", n)
	}
}

// TestSegmentsNamesAndOrder: Segments enumerates the links dimension-major,
// then ringlet by ringlet, then by position, each segment joining the nodes
// at positions i and i+1 of its ringlet, and the route between those two
// nodes is that segment alone.
func TestSegmentsNamesAndOrder(t *testing.T) {
	for _, dims := range [][3]int{{3, 4, 5}, {6, 6, 6}} {
		tp := New(dims[0], dims[1], dims[2], 633*ring.MiB, nil)
		n := tp.Nodes()
		for k, s := range tp.Segments() {
			d := k / n
			line, i := k%n/dims[d], k%n%dims[d]
			coords := func(pos int) [3]int {
				switch d {
				case 0:
					return [3]int{pos, line % dims[1], line / dims[1]}
				case 1:
					return [3]int{line % dims[0], pos, line / dims[0]}
				default:
					return [3]int{line % dims[0], line / dims[0], pos}
				}
			}
			from, to := coords(i), coords((i+1)%dims[d])
			if s.Dim != d || s.From != tp.NodeID(from[0], from[1], from[2]) || s.To != tp.NodeID(to[0], to[1], to[2]) {
				t.Fatalf("%v: segment %d is dim %d %d->%d, want dim %d %v->%v", dims, k, s.Dim, s.From, s.To, d, from, to)
			}
			if r := tp.Route(s.From, s.To); len(r) != 1 || r[0] != s.Link {
				t.Fatalf("%v: route %d->%d does not take segment %d", dims, s.From, s.To, k)
			}
		}
	}
}

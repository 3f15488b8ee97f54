package torus

import (
	"testing"
	"time"

	"scimpich/internal/flow"
)

func TestSegmentsEnumerateEveryLinkOnce(t *testing.T) {
	tp := New(4, 4, 8, 633<<20, nil)
	segs := tp.Segments()
	if len(segs) != 3*tp.Nodes() {
		t.Fatalf("got %d segments, want %d", len(segs), 3*tp.Nodes())
	}
	seen := make(map[*flow.Link]bool)
	for _, s := range segs {
		if seen[s.Link] {
			t.Fatalf("link %p (dim %d, %d->%d) enumerated twice", s.Link, s.Dim, s.From, s.To)
		}
		seen[s.Link] = true
		// Endpoints must differ in exactly the segment's dimension by one
		// (mod that dimension's extent).
		fx, fy, fz := tp.Coords(s.From)
		tx, ty, tz := tp.Coords(s.To)
		d := [3]int{(tx - fx + 4) % 4, (ty - fy + 4) % 4, (tz - fz + 8) % 8}
		for dim := 0; dim < 3; dim++ {
			want := 0
			if dim == s.Dim {
				want = 1
			}
			if d[dim] != want {
				t.Fatalf("segment dim %d from %d to %d has delta %v", s.Dim, s.From, s.To, d)
			}
		}
	}
}

func TestPartitionZ(t *testing.T) {
	tp := New(4, 4, 8, 633<<20, nil)
	for _, shards := range []int{1, 2, 4, 8} {
		assign := tp.PartitionZ(shards)
		counts := make([]int, shards)
		for id, s := range assign {
			_, _, z := tp.Coords(id)
			if want := z / (8 / shards); s != want {
				t.Fatalf("shards=%d: node %d (z=%d) on shard %d, want %d", shards, id, z, s, want)
			}
			counts[s]++
		}
		for s, c := range counts {
			if c != tp.Nodes()/shards {
				t.Fatalf("shards=%d: shard %d owns %d nodes, want %d", shards, s, c, tp.Nodes()/shards)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PartitionZ(3) on dz=8 did not panic")
		}
	}()
	tp.PartitionZ(3)
}

func TestCrossShardLinksAreZOnly(t *testing.T) {
	tp := New(4, 4, 8, 633<<20, nil).SetLinkLatency(70 * time.Nanosecond)
	assign := tp.PartitionZ(4)
	cross := tp.CrossShardLinks(assign)
	// Every z-plane-boundary crossing: 4 boundaries between distinct shards
	// are at z=1->2, 3->4, 5->6, 7->0; each boundary has dx*dy=16 links.
	// Within-shard z hops (z=0->1 etc.) must not appear.
	if len(cross) != 4*16 {
		t.Fatalf("got %d cross links, want 64", len(cross))
	}
	crossSet := make(map[*flow.Link]bool, len(cross))
	for _, l := range cross {
		crossSet[l] = true
	}
	for _, s := range tp.Segments() {
		if crossSet[s.Link] && s.Dim != 2 {
			t.Fatalf("non-z link (dim %d) crosses the z partition", s.Dim)
		}
	}
	if got := flow.MinLatency(cross); got != 70*time.Nanosecond {
		t.Fatalf("lookahead over cross links = %v, want 70ns", got)
	}
}

package mpi

import (
	"slices"
	"testing"

	"scimpich/internal/allocwin"
	"scimpich/internal/datatype"
)

// TestGroupRanksAllocatesNothing: the shrink agreement calls groupRanks in
// its polling loop, so on a world communicator it returns the world's one
// identity table, built by the first call, instead of a new one per call.
func TestGroupRanksAllocatesNothing(t *testing.T) {
	Run(DefaultConfig(4, 1), func(c *Comm) {
		if got := c.groupRanks(); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Errorf("rank %d: world group %v, want [0 1 2 3]", c.Rank(), got)
		}
		if n := testing.AllocsPerRun(100, func() { c.groupRanks() }); n != 0 && !allocwin.RaceEnabled {
			t.Errorf("rank %d: groupRanks on the world communicator: %v allocs/call, want 0", c.Rank(), n)
		}
	})
}

func TestDupSeparatesTraffic(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		d := c.Dup()
		if d.Rank() != c.Rank() || d.Size() != c.Size() {
			t.Errorf("dup changed rank/size: %d/%d", d.Rank(), d.Size())
		}
		// The same (src, tag) on the two communicators must not match
		// across: send on both, receive in swapped order.
		switch c.Rank() {
		case 0:
			must(c.Send([]byte{1}, 1, datatype.Byte, 1, 7))
			must(d.Send([]byte{2}, 1, datatype.Byte, 1, 7))
		case 1:
			buf := make([]byte, 1)
			must1(d.Recv(buf, 1, datatype.Byte, 0, 7))
			if buf[0] != 2 {
				t.Errorf("dup recv got %d, want 2", buf[0])
			}
			must1(c.Recv(buf, 1, datatype.Byte, 0, 7))
			if buf[0] != 1 {
				t.Errorf("world recv got %d, want 1", buf[0])
			}
		}
	})
}

func TestSplitByParity(t *testing.T) {
	const procs = 6
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		if sub == nil {
			t.Fatal("split returned nil for valid color")
		}
		if sub.Size() != procs/2 {
			t.Fatalf("split size = %d, want %d", sub.Size(), procs/2)
		}
		wantRank := c.Rank() / 2
		if sub.Rank() != wantRank {
			t.Fatalf("world rank %d: sub rank = %d, want %d", c.Rank(), sub.Rank(), wantRank)
		}
		// Collective inside the subgroup: gather the world ranks.
		mine := []byte{byte(c.Rank())}
		all := make([]byte, sub.Size())
		must(sub.Allgather(mine, 1, datatype.Byte, all))
		for i, v := range all {
			want := byte(2*i + c.Rank()%2)
			if v != want {
				t.Fatalf("subgroup slot %d = %d, want %d", i, v, want)
			}
		}
	})
}

func TestSplitReverseKeyOrder(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		// Same color for all, key descending: ranks reverse.
		sub := c.Split(0, procs-c.Rank())
		if sub.Rank() != procs-1-c.Rank() {
			t.Errorf("world %d: reversed rank = %d, want %d", c.Rank(), sub.Rank(), procs-1-c.Rank())
		}
		// Point-to-point inside the subgroup uses local numbering.
		buf := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		peer := sub.Size() - 1 - sub.Rank() // my own world rank's slot
		must1(sub.Sendrecv(buf, 1, datatype.Byte, peer, 0, in, 1, datatype.Byte, peer, 0))
		if in[0] != byte(procs-1-c.Rank()) {
			t.Errorf("world %d: exchanged with %d, got %d", c.Rank(), peer, in[0])
		}
	})
}

func TestSplitUndefinedColor(t *testing.T) {
	Run(DefaultConfig(3, 1), func(c *Comm) {
		color := 0
		if c.Rank() == 2 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 2 {
			if sub != nil {
				t.Error("negative color should return nil communicator")
			}
			return
		}
		if sub == nil || sub.Size() != 2 {
			t.Fatalf("split lost members: %+v", sub)
		}
		must(sub.Barrier())
	})
}

func TestSplitStatusSourceIsLocal(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		sub := c.Split(c.Rank()%2, 0)
		if sub.Size() != 2 {
			t.Fatalf("size %d", sub.Size())
		}
		switch sub.Rank() {
		case 0:
			must(sub.Send([]byte{9}, 1, datatype.Byte, 1, 0))
		case 1:
			buf := make([]byte, 1)
			st := must1(sub.Recv(buf, 1, datatype.Byte, AnySource, AnyTag))
			if st.Source != 0 {
				t.Errorf("status source = %d (group-local expected 0)", st.Source)
			}
		}
	})
}

func TestNestedSplit(t *testing.T) {
	const procs = 8
	Run(DefaultConfig(procs, 2), func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank()) // two halves of 4
		quarter := half.Split(half.Rank()/2, half.Rank())
		if quarter.Size() != 2 {
			t.Fatalf("nested split size = %d, want 2", quarter.Size())
		}
		// Reduction within the quarter: sum of world ranks.
		recv := make([]byte, 8)
		must(quarter.Allreduce(Float64Bytes([]float64{float64(c.Rank())}), recv, 1, datatype.Float64, OpSum))
		base := (c.Rank() / 2) * 2
		want := float64(base + base + 1)
		if got := BytesFloat64(recv)[0]; got != want {
			t.Errorf("world %d: quarter sum = %g, want %g", c.Rank(), got, want)
		}
	})
}

func TestDupThenSplitContextsDistinct(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		d := c.Dup()
		s := c.Split(0, c.Rank())
		ids := map[int]bool{c.ContextID(): true}
		for _, cc := range []*Comm{d, s} {
			if ids[cc.ContextID()] {
				t.Errorf("context id %d reused", cc.ContextID())
			}
			ids[cc.ContextID()] = true
		}
	})
}

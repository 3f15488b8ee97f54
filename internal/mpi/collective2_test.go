package mpi

import (
	"testing"

	"scimpich/internal/datatype"
)

func TestAllgatherRing(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 5, 8} {
		Run(DefaultConfig(procs, 1), func(c *Comm) {
			mine := []byte{byte(c.Rank() * 3), byte(c.Rank()*3 + 1)}
			all := make([]byte, 2*procs)
			must(c.Allgather(mine, 2, datatype.Byte, all))
			for r := 0; r < procs; r++ {
				if all[2*r] != byte(r*3) || all[2*r+1] != byte(r*3+1) {
					t.Fatalf("procs=%d rank=%d: slot %d = %v", procs, c.Rank(), r, all[2*r:2*r+2])
				}
			}
		})
	}
}

func TestAlltoallPairwise(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		me := c.Rank()
		send := make([]byte, procs)
		for i := range send {
			send[i] = byte(me*10 + i) // value encodes (sender, receiver)
		}
		recv := make([]byte, procs)
		must(c.Alltoall(send, 1, datatype.Byte, recv))
		for i := range recv {
			if recv[i] != byte(i*10+me) {
				t.Fatalf("rank %d slot %d = %d, want %d", me, i, recv[i], i*10+me)
			}
		}
	})
}

func TestScanPrefixSums(t *testing.T) {
	const procs = 6
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		mine := Float64Bytes([]float64{float64(c.Rank() + 1), 1})
		recv := make([]byte, 16)
		must(c.Scan(mine, recv, 2, datatype.Float64, OpSum))
		got := BytesFloat64(recv)
		want0 := 0.0
		for r := 0; r <= c.Rank(); r++ {
			want0 += float64(r + 1)
		}
		if got[0] != want0 || got[1] != float64(c.Rank()+1) {
			t.Errorf("rank %d: scan = %v, want [%g %d]", c.Rank(), got, want0, c.Rank()+1)
		}
	})
}

func TestScanSingleRank(t *testing.T) {
	Run(DefaultConfig(1, 1), func(c *Comm) {
		recv := make([]byte, 8)
		must(c.Scan(Float64Bytes([]float64{7}), recv, 1, datatype.Float64, OpSum))
		if BytesFloat64(recv)[0] != 7 {
			t.Error("single-rank scan wrong")
		}
	})
}

func TestReduceScatterBlock(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		// Everyone contributes block r = [rank + r*100].
		send := make([]float64, procs)
		for r := range send {
			send[r] = float64(c.Rank() + r*100)
		}
		recv := make([]byte, 8)
		must(c.ReduceScatterBlock(Float64Bytes(send), recv, 1, datatype.Float64, OpSum))
		got := BytesFloat64(recv)[0]
		want := float64(0+1+2+3) + float64(procs*c.Rank()*100)
		if got != want {
			t.Errorf("rank %d: reduce-scatter = %g, want %g", c.Rank(), got, want)
		}
	})
}

func TestWaitall(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		const n = 8
		switch c.Rank() {
		case 0:
			var reqs []*Request
			for i := 0; i < n; i++ {
				reqs = append(reqs, c.Isend([]byte{byte(i)}, 1, datatype.Byte, 1, i))
			}
			must1(c.Waitall(reqs))
		case 1:
			bufs := make([][]byte, n)
			var reqs []*Request
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, 1)
				reqs = append(reqs, c.Irecv(bufs[i], 1, datatype.Byte, 0, i))
			}
			sts := must1(c.Waitall(reqs))
			for i, st := range sts {
				if st == nil || st.Bytes != 1 || bufs[i][0] != byte(i) {
					t.Fatalf("request %d: status %+v buf %v", i, st, bufs[i])
				}
			}
		}
	})
}

func TestAllgatherOnSMPCluster(t *testing.T) {
	// Mixed transports: the ring algorithm crosses node boundaries.
	Run(DefaultConfig(3, 2), func(c *Comm) {
		mine := []byte{byte(c.Rank() + 1)}
		all := make([]byte, c.Size())
		must(c.Allgather(mine, 1, datatype.Byte, all))
		for r := 0; r < c.Size(); r++ {
			if all[r] != byte(r+1) {
				t.Fatalf("rank %d: allgather slot %d = %d", c.Rank(), r, all[r])
			}
		}
	})
}

func TestScanNonCommutativeOrdering(t *testing.T) {
	// Prefix products depend on order; verify left-to-right evaluation.
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		mine := Float64Bytes([]float64{float64(c.Rank() + 2)})
		recv := make([]byte, 8)
		must(c.Scan(mine, recv, 1, datatype.Float64, OpProd))
		want := 1.0
		for r := 0; r <= c.Rank(); r++ {
			want *= float64(r + 2)
		}
		if got := BytesFloat64(recv)[0]; got != want {
			t.Errorf("rank %d: prefix product = %g, want %g", c.Rank(), got, want)
		}
	})
}

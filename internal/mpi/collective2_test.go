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

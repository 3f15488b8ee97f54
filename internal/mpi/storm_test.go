package mpi

import (
	"bytes"
	"math/rand"
	"testing"

	"scimpich/internal/datatype"
)

// Message-storm property tests: many messages with randomized sizes, tags
// and posting orders must all be delivered exactly once with intact
// contents, regardless of which protocol (short/eager/rendezvous) each one
// takes and in which order the receives are posted.

func TestStormRandomSizesAndOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		nmsgs := rng.Intn(20) + 5
		sizes := make([]int, nmsgs)
		for i := range sizes {
			// Cover all three protocol regimes.
			switch rng.Intn(3) {
			case 0:
				sizes[i] = rng.Intn(120) + 1 // short
			case 1:
				sizes[i] = rng.Intn(12<<10) + 256 // eager
			default:
				sizes[i] = rng.Intn(256<<10) + 20<<10 // rendezvous
			}
		}
		// The receiver posts in a random permutation, by distinct tags.
		perm := rng.Perm(nmsgs)
		Run(DefaultConfig(2, 1), func(c *Comm) {
			switch c.Rank() {
			case 0:
				for i := 0; i < nmsgs; i++ {
					payload := bytes.Repeat([]byte{byte(i + 1)}, sizes[i])
					must(c.Send(payload, sizes[i], datatype.Byte, 1, i))
				}
			case 1:
				reqs := make([]*Request, nmsgs)
				bufs := make([][]byte, nmsgs)
				for _, i := range perm {
					bufs[i] = make([]byte, sizes[i])
					reqs[i] = c.Irecv(bufs[i], sizes[i], datatype.Byte, 0, i)
				}
				sts := must1(c.Waitall(reqs))
				for i := range sts {
					if sts[i].Bytes != int64(sizes[i]) {
						t.Errorf("trial %d msg %d: %d bytes, want %d", trial, i, sts[i].Bytes, sizes[i])
					}
					for _, b := range bufs[i] {
						if b != byte(i+1) {
							t.Fatalf("trial %d msg %d corrupted", trial, i)
						}
					}
				}
			}
		})
	}
}

func TestStormAllToAllTraffic(t *testing.T) {
	// Every rank sends to every other rank simultaneously; a full matrix
	// of messages with mixed transports on an SMP cluster.
	const procs = 6
	const size = 24 << 10
	Run(DefaultConfig(3, 2), func(c *Comm) {
		me := c.Rank()
		var reqs []*Request
		bufs := make([][]byte, procs)
		for r := 0; r < procs; r++ {
			if r == me {
				continue
			}
			bufs[r] = make([]byte, size)
			reqs = append(reqs, c.Irecv(bufs[r], size, datatype.Byte, r, 0))
		}
		for r := 0; r < procs; r++ {
			if r == me {
				continue
			}
			payload := bytes.Repeat([]byte{byte(me + 1)}, size)
			reqs = append(reqs, c.Isend(payload, size, datatype.Byte, r, 0))
		}
		must1(c.Waitall(reqs))
		for r := 0; r < procs; r++ {
			if r == me {
				continue
			}
			if bufs[r][0] != byte(r+1) || bufs[r][size-1] != byte(r+1) {
				t.Errorf("rank %d: message from %d corrupted", me, r)
			}
		}
	})
}

func TestStormBidirectionalRendezvous(t *testing.T) {
	// Simultaneous large sends in both directions on the same pair must
	// not deadlock (separate per-direction rendezvous state).
	const size = 512 << 10
	Run(DefaultConfig(2, 1), func(c *Comm) {
		peer := 1 - c.Rank()
		out := bytes.Repeat([]byte{byte(c.Rank() + 1)}, size)
		in := make([]byte, size)
		r := c.Irecv(in, size, datatype.Byte, peer, 0)
		must(c.Send(out, size, datatype.Byte, peer, 0))
		must1(r.Wait())
		if in[0] != byte(peer+1) || in[size-1] != byte(peer+1) {
			t.Error("bidirectional rendezvous corrupted data")
		}
	})
}

func TestStormManySmallToOneReceiver(t *testing.T) {
	// Incast: every rank floods rank 0 with short messages; ordering per
	// pair must hold and nothing may be lost.
	const procs = 8
	const per = 25
	Run(DefaultConfig(4, 2), func(c *Comm) {
		if c.Rank() == 0 {
			counts := make([]int, procs)
			buf := make([]byte, 2)
			for i := 0; i < (procs-1)*per; i++ {
				st := must1(c.Recv(buf, 2, datatype.Byte, AnySource, AnyTag))
				src := st.Source
				if int(buf[0]) != src || int(buf[1]) != counts[src] {
					t.Fatalf("message from %d out of order: seq %d, want %d", src, buf[1], counts[src])
				}
				counts[src]++
			}
			for r := 1; r < procs; r++ {
				if counts[r] != per {
					t.Errorf("rank %d delivered %d messages, want %d", r, counts[r], per)
				}
			}
			return
		}
		for i := 0; i < per; i++ {
			must(c.Send([]byte{byte(c.Rank()), byte(i)}, 2, datatype.Byte, 0, i))
		}
	})
}

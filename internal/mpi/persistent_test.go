package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/sci"
)

func TestPersistentHaloLoop(t *testing.T) {
	const iters = 12
	const size = 8 << 10
	Run(DefaultConfig(2, 1), func(c *Comm) {
		peer := 1 - c.Rank()
		out := make([]byte, size)
		in := make([]byte, size)
		send := c.SendInit(out, size, datatype.Byte, peer, 7)
		recv := c.RecvInit(in, size, datatype.Byte, peer, 7)
		for i := 0; i < iters; i++ {
			for j := range out {
				out[j] = byte(c.Rank()*50 + i)
			}
			StartAll([]*PersistentRequest{recv, send})
			must(WaitAllPersistent([]*PersistentRequest{recv, send}))
			want := byte(peer*50 + i)
			if in[0] != want || in[size-1] != want {
				t.Fatalf("iteration %d: halo = %d, want %d", i, in[0], want)
			}
		}
		if send.Active() || recv.Active() {
			t.Error("requests still active after Wait")
		}
	})
}

func TestPersistentDoubleStartPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	Run(DefaultConfig(2, 1), func(c *Comm) {
		if c.Rank() == 0 {
			pr := c.RecvInit(make([]byte, 4), 4, datatype.Byte, 1, 0)
			pr.Start()
			pr.Start()
		} else {
			must(c.Send(make([]byte, 4), 4, datatype.Byte, 0, 0))
			must(c.Send(make([]byte, 4), 4, datatype.Byte, 0, 0))
		}
	})
}

func TestSsendWaitsForMatch(t *testing.T) {
	// The synchronous send must not complete before the receive is posted.
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			start := c.WtimeDuration()
			must(c.Ssend([]byte{42}, 1, datatype.Byte, 1, 0))
			if c.WtimeDuration()-start < 400*time.Microsecond {
				t.Errorf("Ssend completed in %v, before the receive was posted", c.WtimeDuration()-start)
			}
		case 1:
			c.Proc().Sleep(500 * time.Microsecond)
			buf := make([]byte, 1)
			must1(c.Recv(buf, 1, datatype.Byte, 0, 0))
			if buf[0] != 42 {
				t.Error("Ssend data corrupted")
			}
		}
	})
}

func TestSsendZeroBytes(t *testing.T) {
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Ssend(nil, 0, datatype.Byte, 1, 0))
		case 1:
			c.Proc().Sleep(100 * time.Microsecond)
			must1(c.Recv(nil, 0, datatype.Byte, 0, 0))
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		me := c.Rank()
		// Rank r sends (p+1) bytes of value r*16+p to rank p.
		sendCounts := make([]int, procs)
		sdispls := make([]int, procs)
		total := 0
		for p := 0; p < procs; p++ {
			sendCounts[p] = p + 1
			sdispls[p] = total
			total += p + 1
		}
		send := make([]byte, total)
		for p := 0; p < procs; p++ {
			for i := 0; i < sendCounts[p]; i++ {
				send[sdispls[p]+i] = byte(me*16 + p)
			}
		}
		// Everyone receives (me+1) bytes from each peer.
		recvCounts := make([]int, procs)
		rdispls := make([]int, procs)
		rtotal := 0
		for p := 0; p < procs; p++ {
			recvCounts[p] = me + 1
			rdispls[p] = rtotal
			rtotal += me + 1
		}
		recv := make([]byte, rtotal)
		must(c.Alltoallv(send, sendCounts, sdispls, datatype.Byte, recv, recvCounts, rdispls))
		for p := 0; p < procs; p++ {
			seg := recv[rdispls[p] : rdispls[p]+recvCounts[p]]
			want := bytes.Repeat([]byte{byte(p*16 + me)}, me+1)
			if !bytes.Equal(seg, want) {
				t.Fatalf("rank %d from %d: %v, want %v", me, p, seg, want)
			}
		}
	})
}

// TestCallsReturnTypedErrors: the calls that panicked on a bad argument or
// a fault return it. Rank 0 makes each call; in the crash rows node 1 is
// down by then and rank 1 does nothing.
func TestCallsReturnTypedErrors(t *testing.T) {
	big := fill(256 << 10) // rendezvous-sized
	isArg := func(call string) func(error) bool {
		return func(err error) bool {
			var arg *ArgumentError
			return errors.As(err, &arg) && arg.Call == call
		}
	}
	isLost := func(err error) bool {
		var lost sci.ErrConnectionLost
		var fe *fault.Error
		return errors.As(err, &lost) || errors.As(err, &fe)
	}
	for _, tc := range []struct {
		name  string
		crash bool
		call  func(c *Comm) error
		ok    func(error) bool
	}{
		{"Send past the last rank", false, func(c *Comm) error {
			return c.Send(big[:8], 8, datatype.Byte, 2, 0)
		}, isArg("Send")},
		{"Send to a negative rank", false, func(c *Comm) error {
			return c.Send(big[:8], 8, datatype.Byte, -1, 0)
		}, isArg("Send")},
		{"Ssend to self", false, func(c *Comm) error {
			return c.Ssend(big[:8], 8, datatype.Byte, 0, 0)
		}, isArg("Ssend")},
		{"Ssend to a crashed node", true, func(c *Comm) error {
			return c.Ssend(big[:8], 8, datatype.Byte, 1, 0)
		}, isLost},
		{"PersistentRequest.Wait on a crashed peer", true, func(c *Comm) error {
			pr := c.SendInit(big, len(big), datatype.Byte, 1, 0)
			pr.Start()
			_, err := pr.Wait()
			if pr.Active() {
				return fmt.Errorf("a failed Wait left the request active (err %v)", err)
			}
			return err
		}, isLost},
		{"WaitAllPersistent drains past the first failure", true, func(c *Comm) error {
			reqs := []*PersistentRequest{
				c.SendInit(big, len(big), datatype.Byte, 1, 0),
				c.SendInit(big, len(big), datatype.Byte, 1, 1),
			}
			StartAll(reqs)
			err := WaitAllPersistent(reqs)
			if reqs[0].Active() || reqs[1].Active() {
				return fmt.Errorf("WaitAllPersistent left a request active (err %v)", err)
			}
			return err
		}, isLost},
		{"Shrink after a crash", true, func(c *Comm) error {
			s, err := c.Shrink()
			if err == nil && s.Size() != 1 {
				return fmt.Errorf("shrunken communicator has %d ranks, want 1", s.Size())
			}
			return err
		}, func(err error) bool { return err == nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(2, 1)
			cfg.Protocol.RendezvousTimeout = AutoTimeout
			if tc.crash {
				cfg.SCI.Fault = fault.New(3).CrashNode(1, 100*time.Microsecond)
			}
			var err error
			Run(cfg, func(c *Comm) {
				if c.Rank() == 0 {
					c.Proc().Sleep(200 * time.Microsecond)
					err = tc.call(c)
				}
			})
			if !tc.ok(err) {
				t.Errorf("err = %v (%T)", err, err)
			}
		})
	}
}

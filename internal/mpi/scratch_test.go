package mpi

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// Scratch-record ownership: a rendezvous transfer that ended cleanly hands
// its records back, empty; one that was cancelled, timed out or failed
// leaves them to the GC, so a stale CTS or ack lands in a record no later
// transfer will see. Each case seeds the free lists with a marked record per
// side, breaks the first transfer that takes them, and then runs a clean
// transfer on the same pair.

// seedScratch puts one marked record per side on the world's free lists.
func seedScratch(w *World) (*rdvSend, *rdvRecv) {
	sc, st := new(rdvSend), new(rdvRecv)
	w.rdvSendFree = append(w.rdvSendFree, sc)
	w.rdvRecvFree = append(w.rdvRecvFree, st)
	return sc, st
}

// cleanTransfer sends 256 KiB from rank 0 to rank 1 at the tag and checks
// the bytes.
func cleanTransfer(t *testing.T, c *Comm, tag int) {
	payload := fill(256 << 10)
	switch c.Rank() {
	case 0:
		must(c.Send(payload, len(payload), datatype.Byte, 1, tag))
	case 1:
		got := make([]byte, len(payload))
		must1(c.Recv(got, len(got), datatype.Byte, 0, tag))
		if !bytes.Equal(got, payload) {
			t.Errorf("clean transfer at tag %d delivered the wrong bytes", tag)
		}
	}
}

// checkRecycled: after the clean transfer the lists hold exactly one record
// per side, empty, and neither is a record a broken transfer dropped.
func checkRecycled(t *testing.T, w *World, droppedSend *rdvSend, droppedRecv *rdvRecv) {
	t.Helper()
	if len(w.rdvSendFree) != 1 || len(w.rdvRecvFree) != 1 {
		t.Fatalf("free lists hold %d sender and %d receiver records after one clean transfer, want 1 and 1",
			len(w.rdvSendFree), len(w.rdvRecvFree))
	}
	sc, st := w.rdvSendFree[0], w.rdvRecvFree[0]
	if sc == droppedSend || st == droppedRecv {
		t.Error("the record of a broken transfer is back on a free list")
	}
	if sc.reply.Len() != 0 {
		t.Errorf("a recycled sender record holds %d replies", sc.reply.Len())
	}
	if st.req != nil || st.received != 0 || st.nextChunk != 0 || st.err != nil {
		t.Errorf("a recycled receiver record is not empty: %+v", st)
	}
}

func TestRdvScratchRecycling(t *testing.T) {
	// The sender gives up after a permanent deposit failure (the link is
	// disturbed for the first 3 ms) and cancels: both records are dropped.
	t.Run("cancel", func(t *testing.T) {
		cfg := DefaultConfig(2, 1)
		cfg.SCI.Fault = fault.New(5).DisturbLink(0, 1, 0, 3*time.Millisecond)
		var w *World
		var sc *rdvSend
		var st *rdvRecv
		var sendErr, recvErr error
		Run(cfg, func(c *Comm) {
			w = c.rk.w
			buf := make([]byte, 256<<10)
			switch c.Rank() {
			case 0:
				sc, st = seedScratch(w)
				sendErr = c.Send(buf, len(buf), datatype.Byte, 1, 300)
			case 1:
				_, recvErr = c.Recv(buf, len(buf), datatype.Byte, 0, 300)
			}
			c.p.Sleep(4*time.Millisecond - c.p.Now())
			if n := len(w.rdvSendFree) + len(w.rdvRecvFree); c.Rank() == 0 && n != 0 {
				t.Errorf("%d records on the free lists after a cancelled transfer, want 0", n)
			}
			cleanTransfer(t, c, 301)
		})
		var cancelled *CancelledError
		if sendErr == nil || !errors.As(recvErr, &cancelled) {
			t.Fatalf("the first transfer was not cancelled: send %v, recv %v", sendErr, recvErr)
		}
		checkRecycled(t, w, sc, st)
	})

	// The sender's watchdog expires before the receiver posts. The receive
	// that comes later matches the abandoned request and answers it: that
	// stale CTS must end up in the dropped record.
	t.Run("watchdog", func(t *testing.T) {
		cfg := DefaultConfig(2, 1)
		cfg.Protocol.RendezvousTimeout = 200 * time.Microsecond
		var w *World
		var sc *rdvSend
		var st *rdvRecv
		var sendErr, recvErr error
		Run(cfg, func(c *Comm) {
			w = c.rk.w
			buf := make([]byte, 256<<10)
			switch c.Rank() {
			case 0:
				sc, st = seedScratch(w)
				sendErr = c.Send(buf, len(buf), datatype.Byte, 1, 300)
			case 1:
				c.p.Sleep(time.Millisecond)
				_, recvErr = c.RecvTimeout(buf, len(buf), datatype.Byte, 0, 300, time.Millisecond)
			}
			c.p.Sleep(4*time.Millisecond - c.p.Now())
			cleanTransfer(t, c, 301)
		})
		var fe *fault.Error
		if !errors.As(sendErr, &fe) || fe.Kind != fault.Timeout || recvErr == nil {
			t.Fatalf("the first transfer did not time out on both sides: send %v, recv %v", sendErr, recvErr)
		}
		if sc.reply.Len() != 1 {
			t.Errorf("the dropped sender record holds %d replies, want the stale CTS", sc.reply.Len())
		}
		// The abandoned receive keeps its record (no chunk will ever come).
		checkRecycled(t, w, sc, st)
	})

	// A duplicate CTS arrives while the sender waits for acks: it is
	// counted, recorded as a stray drop and skipped, the transfer ends
	// cleanly, and its records come back empty — and are taken again by the
	// next transfer.
	t.Run("duplicate-cts", func(t *testing.T) {
		var w *World
		var sc *rdvSend
		var st *rdvRecv
		cfg := DefaultConfig(2, 1)
		cfg.Flight = flight.New(0)
		Run(cfg, func(c *Comm) {
			w = c.rk.w
			payload := fill(1 << 20) // 16 chunks
			switch c.Rank() {
			case 0:
				sc, st = seedScratch(w)
				r := c.Isend(payload, len(payload), datatype.Byte, 1, 300)
				c.p.Sleep(500 * time.Microsecond) // the CTS is in, acks are due
				c.rk.dev.post(w.newEnvelope(envelope{kind: envRdvCTS, src: 1, dst: 0, reply: &sc.reply}))
				must1(r.Wait())
			case 1:
				got := make([]byte, len(payload))
				must1(c.Recv(got, len(got), datatype.Byte, 0, 300))
				if !bytes.Equal(got, payload) {
					t.Error("the transfer with a duplicate CTS delivered the wrong bytes")
				}
			}
			must(c.Barrier())
			if c.Rank() == 0 {
				if got := w.Stats(0).Duplicates; got != 1 {
					t.Errorf("sender counted %d stray control packets, want 1", got)
				}
				strays := 0
				for _, e := range c.rk.fl.Events() {
					if e.Kind == flight.KPacketDrop && e.C == flight.DropStray && e.A == int64(envRdvCTS) {
						strays++
					}
				}
				if strays != 1 {
					t.Errorf("sender's flight ring holds %d stray CTS drops, want 1", strays)
				}
				if len(w.rdvSendFree) != 1 || w.rdvSendFree[0] != sc || len(w.rdvRecvFree) != 1 || w.rdvRecvFree[0] != st {
					t.Error("a clean transfer did not hand its seeded records back")
				}
			}
			must(c.Barrier())
			cleanTransfer(t, c, 301)
		})
		checkRecycled(t, w, nil, nil)
		if w.rdvSendFree[0] != sc || w.rdvRecvFree[0] != st {
			t.Error("the second transfer did not reuse the recycled records")
		}
	})

	// A record whose channel still holds a reply is never taken back.
	t.Run("non-empty", func(t *testing.T) {
		w := new(World)
		sc := sim.TakeFree(&w.rdvSendFree)
		sim.Post(&sc.reply, new(envelope))
		w.freeRdvSend(sc)
		if len(w.rdvSendFree) != 0 {
			t.Error("a sender record with a queued reply went back on the free list")
		}
	})
}

// TestRecvRequestRecycling: a blocking receive posts a Request from the
// world's free list and hands it back after a clean wait. One whose watchdog
// expired stays posted at the device and is never recycled: a late matching
// send completes it, into the buffer it was posted with, and the receive
// that follows gets a Request, bytes and Status of its own.
func TestRecvRequestRecycling(t *testing.T) {
	late, next := fill(96), fill(64)
	Run(DefaultConfig(2, 1), func(c *Comm) {
		w := c.rk.w
		if c.Rank() == 0 {
			c.p.Sleep(2 * time.Millisecond) // the receiver has given up by now
			must(c.Send(late, len(late), datatype.Byte, 1, 300))
			must(c.Send(next, len(next), datatype.Byte, 1, 300))
			must(c.Send(next, len(next), datatype.Byte, 1, 301))
			return
		}
		abandoned := make([]byte, len(late))
		_, err := c.RecvTimeout(abandoned, len(abandoned), datatype.Byte, 0, 300, time.Millisecond)
		var fe *fault.Error
		if !errors.As(err, &fe) || fe.Kind != fault.Timeout {
			t.Fatalf("RecvTimeout = %v, want a timeout", err)
		}
		if len(c.rk.dev.posted) != 1 {
			t.Fatalf("%d receives posted after the timeout, want the abandoned one", len(c.rk.dev.posted))
		}
		stale := c.rk.dev.posted[0]
		if slices.Contains(w.reqFree, stale) {
			t.Fatal("a timed-out receive put its Request, still posted, back on the free list")
		}

		// The late send lands in the abandoned request, the one after it in
		// this receive.
		got := make([]byte, len(next))
		st := must1(c.Recv(got, len(got), datatype.Byte, 0, 300))
		if !bytes.Equal(abandoned, late) {
			t.Error("the late send did not complete the abandoned receive it matched")
		}
		if !bytes.Equal(got, next) || st != (Status{Source: 0, Tag: 300, Bytes: 64}) {
			t.Errorf("the next receive got status %+v and the wrong bytes=%v, want 64 bytes of its own message from 0 at tag 300",
				st, !bytes.Equal(got, next))
		}
		if slices.Contains(w.reqFree, stale) {
			t.Error("the abandoned Request went back on the free list once its message came")
		}

		// A clean receive returns its Request, zeroed, and the next one takes
		// it again: the list does not grow.
		n := len(w.reqFree)
		if n == 0 {
			t.Fatal("the clean receive left no Request on the free list")
		}
		if r := w.reqFree[n-1]; r.fold.mine != nil || r.c != nil || r.buf != nil || r.dt != nil || r.done.Done() {
			t.Errorf("a recycled Request is not empty: %+v", r)
		}
		must1(c.Recv(got, len(got), datatype.Byte, 0, 301))
		if len(w.reqFree) != n {
			t.Errorf("%d Requests on the free list after another clean receive, want %d as before", len(w.reqFree), n)
		}
	})
}

// TestSendrecvChecked: the exchange returns the Status by value, and a
// revoked source as a typed error without taking a Request.
func TestSendrecvChecked(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		peer := c.Rank() ^ 1
		out, in := fill(300), make([]byte, 300)
		st, err := c.Sendrecv(out, len(out), datatype.Byte, peer, 400, in, len(in), datatype.Byte, peer, 400)
		if err != nil || st != (Status{Source: peer, Tag: 400, Bytes: 300}) || !bytes.Equal(in, out) {
			t.Errorf("rank %d: Sendrecv = %+v, %v", c.Rank(), st, err)
		}
		free := len(c.rk.w.reqFree)
		must(c.Barrier())
		c.rk.w.revoked[peer] = true
		_, err = c.Sendrecv(out, len(out), datatype.Byte, peer, 401, in, len(in), datatype.Byte, peer, 401)
		var rev *RevokedRankError
		if !errors.As(err, &rev) || rev.Rank != peer {
			t.Errorf("rank %d: Sendrecv with a revoked source = %v, want *RevokedRankError{%d}", c.Rank(), err, peer)
		}
		if got := len(c.rk.w.reqFree); got < free {
			t.Errorf("rank %d: a refused exchange took a Request off the free list (%d, was %d)", c.Rank(), got, free)
		}
	})
}

// TestStoreBarrierTwoRanksOfOneNode: both ranks of node 0 send eager
// messages to node 1 at the same instants, so both sit in the node's store
// barrier at once, waiting on its one embedded future. Every round must wake
// both (a lost waiter would deadlock the run) and deliver the bytes.
func TestStoreBarrierTwoRanksOfOneNode(t *testing.T) {
	const rounds = 50
	var w *World
	Run(DefaultConfig(2, 2), func(c *Comm) {
		w = c.rk.w
		me := c.Rank()
		for i := 0; i < rounds; i++ {
			if me < 2 {
				msg := bytes.Repeat([]byte{byte(me*100 + i)}, 4<<10)
				must(c.Send(msg, len(msg), datatype.Byte, me+2, 500+i))
			} else {
				got := make([]byte, 4<<10)
				must1(c.Recv(got, len(got), datatype.Byte, me-2, 500+i))
				if want := byte((me-2)*100 + i); got[0] != want || got[len(got)-1] != want {
					t.Errorf("round %d: rank %d received %d, want %d", i, me, got[0], want)
				}
			}
			must(c.Barrier())
		}
	})
	if got := w.InterconnectStats(0).StoreBarriers; got < 2*rounds {
		t.Errorf("node 0 entered %d store barriers, want at least %d", got, 2*rounds)
	}
}

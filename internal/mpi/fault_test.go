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

// Fault-injection integration tests: with transmission errors injected at
// the SCI layer (the paper's point that SCI cabling "is still a network"
// needing connection monitoring and transfer checking), the full protocol
// stack must still deliver every message exactly once, just more slowly.

func faultyConfig(rate float64) Config {
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(1).WithRetries(rate)
	return cfg
}

func TestFaultySendRecvAllSizes(t *testing.T) {
	for _, size := range []int{64, 4096, 512 << 10} {
		src := fill(size)
		Run(faultyConfig(0.1), func(c *Comm) {
			switch c.Rank() {
			case 0:
				must(c.Send(src, size, datatype.Byte, 1, 0))
			case 1:
				dst := make([]byte, size)
				must1(c.Recv(dst, size, datatype.Byte, 0, 0))
				if !bytes.Equal(dst, src) {
					t.Errorf("size %d: data corrupted under fault injection", size)
				}
			}
		})
	}
}

func TestFaultyNoncontigFF(t *testing.T) {
	ty := datatype.Vector(2048, 16, 32, datatype.Float64).Commit()
	src := fill(int(ty.Extent()) + 64)
	Run(faultyConfig(0.15), func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			must1(c.Recv(dst, 1, ty, 0, 0))
			for _, b := range ty.TypeMap() {
				if !bytes.Equal(dst[b.Off:b.Off+b.Len], src[b.Off:b.Off+b.Len]) {
					t.Fatalf("ff block at %d corrupted under faults", b.Off)
				}
			}
		}
	})
}

func TestFaultsSlowButDontBreakCollectives(t *testing.T) {
	payload := fill(256 << 10) // rendezvous: many transfers, many fault draws
	run := func(rate float64) (time.Duration, int64) {
		cfg := DefaultConfig(4, 1)
		cfg.SCI.Fault = fault.New(1).WithRetries(rate)
		var w *World
		d := Run(cfg, func(c *Comm) {
			if c.Rank() == 0 {
				w = c.World()
			}
			for i := 0; i < 4; i++ {
				collectiveWorkload(t, payload)(c)
			}
		})
		var retries int64
		for n := 0; n < 4; n++ {
			retries += w.InterconnectStats(n).Retries
		}
		return d, retries
	}
	clean, cleanRetries := run(0)
	faulty, faultyRetries := run(0.2)
	if cleanRetries != 0 {
		t.Errorf("clean run recorded %d retries", cleanRetries)
	}
	if faultyRetries == 0 {
		t.Error("faulty run recorded no retries")
	}
	if faulty <= clean {
		t.Errorf("faulty run (%v) not slower than clean run (%v)", faulty, clean)
	}
}

func collectiveWorkload(t *testing.T, payload []byte) func(c *Comm) {
	return func(c *Comm) {
		buf := make([]byte, len(payload))
		if c.Rank() == 2 {
			copy(buf, payload)
		}
		must(c.Bcast(buf, len(buf), datatype.Byte, 2))
		if !bytes.Equal(buf, payload) {
			t.Errorf("rank %d: bcast corrupted under faults", c.Rank())
		}
		recv := make([]byte, 8)
		must(c.Allreduce(Float64Bytes([]float64{1}), recv, 1, datatype.Float64, OpSum))
		if BytesFloat64(recv)[0] != float64(c.Size()) {
			t.Errorf("rank %d: allreduce wrong under faults", c.Rank())
		}
	}
}

func TestFaultyRunsRemainDeterministic(t *testing.T) {
	run := func() time.Duration {
		return Run(faultyConfig(0.25), func(c *Comm) {
			buf := fill(128 << 10)
			switch c.Rank() {
			case 0:
				must(c.Send(buf, len(buf), datatype.Byte, 1, 0))
			case 1:
				dst := make([]byte, len(buf))
				must1(c.Recv(dst, len(dst), datatype.Byte, 0, 0))
			}
		})
	}
	if a, b := run(), run(); a != b {
		t.Errorf("faulty runs diverge: %v vs %v", a, b)
	}
}

// --- fault.Plan-driven tests: deterministic crashes, duplicates and
// injected transfer errors across the full protocol stack. ---

// TestNodeCrashMidRendezvousYieldsConnectionLost: a node crash scheduled
// mid-transfer must surface as a typed sci.ErrConnectionLost at the MPI
// layer (no hang, no panic), and the receiver's watchdog must fire too.
func TestNodeCrashMidRendezvousYieldsConnectionLost(t *testing.T) {
	run := func() (time.Duration, error, error) {
		cfg := DefaultConfig(2, 1)
		cfg.SCI.Fault = fault.New(3).CrashNode(1, 500*time.Microsecond)
		cfg.Protocol.RendezvousTimeout = AutoTimeout // scaled watchdog, no tuned constant
		payload := fill(2 << 20)                     // long enough to straddle the crash
		var sendErr, recvErr error
		d := Run(cfg, func(c *Comm) {
			switch c.Rank() {
			case 0:
				sendErr = c.Send(payload, len(payload), datatype.Byte, 1, 0)
			case 1:
				dst := make([]byte, len(payload))
				_, recvErr = c.RecvTimeout(dst, len(dst), datatype.Byte, 0, 0, AutoTimeout)
			}
		})
		return d, sendErr, recvErr
	}
	d1, sendErr, recvErr := run()
	var lost sci.ErrConnectionLost
	if !errors.As(sendErr, &lost) {
		t.Fatalf("send error = %v, want sci.ErrConnectionLost", sendErr)
	}
	if lost.To != 1 {
		t.Errorf("connection lost toward node %d, want 1", lost.To)
	}
	if recvErr == nil {
		t.Error("receiver completed despite its own node crashing mid-transfer")
	}
	d2, sendErr2, _ := run()
	if d1 != d2 || !errors.As(sendErr2, &lost) {
		t.Errorf("same-seed crash runs diverge: %v/%v vs %v/%v", d1, sendErr, d2, sendErr2)
	}
}

// TestDuplicateInjectionExactlyOnce: with control packets randomly
// retransmitted, the per-peer sequence numbers must drop every duplicate so
// each message is delivered exactly once with intact contents.
func TestDuplicateInjectionExactlyOnce(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(7).WithDuplicates(0.4)
	sizes := []int{64, 4 << 10, 256 << 10} // short, eager, rendezvous
	var w *World
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.World()
		}
		for round := 0; round < 4; round++ {
			for _, size := range sizes {
				src := fill(size)
				switch c.Rank() {
				case 0:
					must(c.Send(src, size, datatype.Byte, 1, round))
				case 1:
					dst := make([]byte, size)
					st := must1(c.Recv(dst, size, datatype.Byte, 0, round))
					if !bytes.Equal(dst, src) {
						t.Errorf("round %d size %d: contents corrupted under duplicates", round, size)
					}
					if st.Bytes != int64(size) {
						t.Errorf("round %d size %d: status reports %d bytes", round, size, st.Bytes)
					}
				}
			}
		}
	})
	var dropped int64
	for r := 0; r < 2; r++ {
		dropped += w.Stats(r).Duplicates
	}
	if dropped == 0 {
		t.Error("no duplicates dropped at a 40% duplication rate")
	}
}

// TestEagerRetryBackoff: injected CRC/sequence errors on the eager deposit
// path are retried with backoff and counted, and the data still arrives
// intact.
func TestEagerRetryBackoff(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(9).WithWriteErrors(0.3)
	src := fill(8 << 10) // eager-sized
	var w *World
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.World()
		}
		for i := 0; i < 8; i++ {
			switch c.Rank() {
			case 0:
				if err := c.Send(src, len(src), datatype.Byte, 1, i); err != nil {
					t.Errorf("send %d failed despite retry budget: %v", i, err)
				}
			case 1:
				dst := make([]byte, len(src))
				must1(c.Recv(dst, len(dst), datatype.Byte, 0, i))
				if !bytes.Equal(dst, src) {
					t.Errorf("send %d: contents corrupted under injected write errors", i)
				}
			}
		}
	})
	if w.Stats(0).SendRetries == 0 {
		t.Error("no send retries recorded at a 30% write-error rate")
	}
	if w.InterconnectStats(0).TransferErrors == 0 {
		t.Error("no transfer errors recorded in the adapter stats")
	}
}

// TestRendezvousTimeoutWithoutReceiver: a rendezvous toward a live peer
// that never posts a receive must trip the watchdog with a typed Timeout
// fault instead of hanging the sender forever.
func TestRendezvousTimeoutWithoutReceiver(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.RendezvousTimeout = 200 * time.Microsecond
	payload := fill(256 << 10)
	var sendErr error
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			sendErr = c.Send(payload, len(payload), datatype.Byte, 1, 0)
		case 1:
			c.Proc().Sleep(2 * time.Millisecond) // never posts the receive
		}
	})
	var fe *fault.Error
	if !errors.As(sendErr, &fe) || fe.Kind != fault.Timeout {
		t.Fatalf("send error = %v, want fault.Timeout", sendErr)
	}
}

// TestCancelledRendezvousTearsDownReceiver: a permanent chunk-deposit
// failure (every data write faulted, retry budget exhausted) must surface a
// typed error at the sender, tear down the receiver's transfer state via
// the cancel packet, and fail the posted receive with a *CancelledError —
// no leaked rendezvous state, no hang, no panic.
func TestCancelledRendezvousTearsDownReceiver(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(13).WithWriteErrors(1).WithDMAErrors(1)
	payload := fill(256 << 10) // rendezvous-sized
	var w *World
	var sendErr, recvErr error
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			w = c.World()
			sendErr = c.Send(payload, len(payload), datatype.Byte, 1, 0)
		case 1:
			dst := make([]byte, len(payload))
			_, recvErr = c.RecvTimeout(dst, len(dst), datatype.Byte, 0, 0, 10*time.Millisecond)
		}
	})
	var fe *fault.Error
	if !errors.As(sendErr, &fe) {
		t.Fatalf("send error = %v, want *fault.Error after exhausted retries", sendErr)
	}
	var cancelled *CancelledError
	if !errors.As(recvErr, &cancelled) {
		t.Fatalf("recv error = %v, want *CancelledError", recvErr)
	}
	if cancelled.Sender != 0 {
		t.Errorf("cancellation names sender %d, want 0", cancelled.Sender)
	}
	if got := w.Stats(1).RdvCancels; got == 0 {
		t.Error("receiver recorded no rendezvous cancellations")
	}
	if n := len(w.ranks[1].dev.rdv); n != 0 {
		t.Errorf("receiver leaked %d rendezvous transfer states after cancel", n)
	}
}

// TestDMAPathDeliversData: under PathDMA every contiguous rendezvous chunk
// goes through the adapter's DMA engine, and the bytes arrive intact.
func TestDMAPathDeliversData(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.Path = PathDMA
	src := fill(512 << 10)
	var w *World
	Run(cfg, func(c *Comm) {
		w = c.World()
		switch c.Rank() {
		case 0:
			must(c.Send(src, len(src), datatype.Byte, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			must1(c.Recv(dst, len(dst), datatype.Byte, 0, 0))
			if !bytes.Equal(dst, src) {
				t.Error("DMA rendezvous corrupted data")
			}
		}
	})
	if got, want := w.InterconnectStats(0).DMATransfers, int64(len(src))/cfg.Protocol.RendezvousChunk; got != want {
		t.Errorf("%d DMA transfers, want one per %d B chunk (%d)", got, cfg.Protocol.RendezvousChunk, want)
	}
}

// TestCallsReturnTypedErrors: a bad rank argument, a buffer that cannot
// hold its count or a fault comes back as a typed error, not a panic. Rank
// 0 makes each call; rank 1 runs the row's peer, if any; in the crash rows
// node 1 is down by then.
func TestCallsReturnTypedErrors(t *testing.T) {
	buf := make([]byte, 8)
	isArg := func(call string) func(error) bool {
		return func(err error) bool {
			var arg *ArgumentError
			return errors.As(err, &arg) && arg.Call == call
		}
	}
	type row struct {
		name  string
		crash bool
		call  func(c *Comm) error
		ok    func(error) bool
		peer  func(c *Comm) error
	}
	sendBytes := func(n int) func(c *Comm) error {
		return func(c *Comm) error { return c.Send(make([]byte, n), n, datatype.Byte, 0, 0) }
	}
	errOf := func(_ any, err error) error { return err }
	negativeLB := datatype.Vector(4, 1, -2, datatype.Float64).Commit()
	rows := []row{
		{"Send past the last rank", false, func(c *Comm) error {
			return c.Send(buf, 8, datatype.Byte, 2, 0)
		}, isArg("Send"), nil},
		{"Send to a negative rank", false, func(c *Comm) error {
			return c.Send(buf, 8, datatype.Byte, -1, 0)
		}, isArg("Send"), nil},
		{"Shrink after a crash", true, func(c *Comm) error {
			s, err := c.Shrink()
			if err == nil && s.Size() != 1 {
				return fmt.Errorf("shrunken communicator has %d ranks, want 1", s.Size())
			}
			return err
		}, func(err error) bool { return err == nil }, nil},
		{"Recv of a 32 B message into 8 B", false, func(c *Comm) error {
			return errOf(c.Recv(buf, 4, datatype.Float64, 1, 0))
		}, isArg("Recv"), sendBytes(32)},
		{"Recv of a 512 KiB message into 8 B", false, func(c *Comm) error {
			return errOf(c.Recv(buf, 64<<10, datatype.Float64, 1, 0))
		}, isArg("Recv"), sendBytes(512 << 10)},
		{"Irecv into 8 B", false, func(c *Comm) error {
			return errOf(c.Irecv(buf, 4, datatype.Float64, 1, 0).Wait())
		}, isArg("Irecv"), nil},
		{"Send of 4 doubles from 8 B", false, func(c *Comm) error {
			return c.Send(buf, 4, datatype.Float64, 1, 0)
		}, isArg("Send"), nil},
		{"Isend of 4 doubles from 8 B", false, func(c *Comm) error {
			return errOf(c.Isend(buf, 4, datatype.Float64, 1, 0).Wait())
		}, isArg("Isend"), nil},
		{"Send of count -1", false, func(c *Comm) error {
			return c.Send(buf, -1, datatype.Byte, 1, 0)
		}, isArg("Send"), nil},
		{"Send of a negative-stride vector", false, func(c *Comm) error {
			return c.Send(make([]byte, 64), 1, negativeLB, 1, 0)
		}, isArg("Send"), nil},
		{"Allreduce of 4 doubles in 8 B", false, func(c *Comm) error {
			return c.Allreduce(buf, make([]byte, 32), 4, datatype.Float64, OpSum)
		}, isArg("Allreduce"), nil},
		{"Bcast of 4 doubles in 8 B", false, func(c *Comm) error {
			return c.Bcast(buf, 4, datatype.Float64, 0)
		}, isArg("Bcast"), nil},
	}
	for _, src := range []int{2, -5} {
		rows = append(rows,
			row{fmt.Sprintf("Recv from rank %d", src), false, func(c *Comm) error {
				_, err := c.Recv(buf, 8, datatype.Byte, src, 0)
				return err
			}, isArg("Recv"), nil},
			row{fmt.Sprintf("RecvTimeout from rank %d", src), false, func(c *Comm) error {
				_, err := c.RecvTimeout(buf, 8, datatype.Byte, src, 0, AutoTimeout)
				return err
			}, isArg("Recv"), nil},
			row{fmt.Sprintf("Sendrecv from rank %d", src), false, func(c *Comm) error {
				_, err := c.Sendrecv(buf, 8, datatype.Byte, 1, 0, buf, 8, datatype.Byte, src, 0)
				return err
			}, isArg("Sendrecv"), nil},
			row{fmt.Sprintf("Irecv from rank %d", src), false, func(c *Comm) error {
				return errOf(c.Irecv(buf, 8, datatype.Byte, src, 0).Wait())
			}, isArg("Irecv"), nil},
			row{fmt.Sprintf("Probe of rank %d", src), false, func(c *Comm) error {
				return errOf(c.Probe(src, 0))
			}, isArg("Probe"), nil},
			row{fmt.Sprintf("Iprobe of rank %d", src), false, func(c *Comm) error {
				_, _, err := c.Iprobe(src, 0)
				return err
			}, isArg("Iprobe"), nil},
		)
	}
	for _, tc := range rows {
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
				} else if tc.peer != nil {
					_ = tc.peer(c) // a rendezvous the refused receive never matches times out
				}
			})
			if !tc.ok(err) {
				t.Errorf("err = %v (%T)", err, err)
			}
		})
	}
}

// TestDeadRankRefusesItsSends: on a 2×1 world with the default
// configuration (no watchdog), node 1 dies at 1 ms and rank 1 sends to rank
// 0 at 2 ms. Each protocol (short, eager, rendezvous) refuses by the pair
// rule (peerLost) before it moves anything: the send returns rank 1's own
// *RevokedRankError after the call overhead alone.
func TestDeadRankRefusesItsSends(t *testing.T) {
	for _, n := range []int{8, 4 << 10, 1 << 20} {
		t.Run(fmt.Sprintf("%d B", n), func(t *testing.T) {
			cfg := DefaultConfig(2, 1)
			cfg.SCI.Fault = fault.New(1).CrashNode(1, time.Millisecond)
			called := false
			Run(cfg, func(c *Comm) {
				if c.Rank() == 0 {
					return
				}
				p := c.Proc()
				p.Sleep(2*time.Millisecond - p.Now())
				err := c.Send(make([]byte, n), n, datatype.Byte, 0, 300)
				var rev *RevokedRankError
				if !errors.As(err, &rev) || rev.Rank != 1 {
					t.Errorf("err = %T %v, want *RevokedRankError for rank 1", err, err)
				}
				if spent := p.Now() - 2*time.Millisecond; spent != callOverhead {
					t.Errorf("the refusal took %v, want the call overhead %v", spent, callOverhead)
				}
				called = true
			})
			if !called {
				t.Fatal("rank 1 never sent")
			}
		})
	}
}

// TestOneSidedImportDeniedIsReturned: a denied import of a peer's
// collective window fails the deposit with the import's error, and the
// denied view is not cached, so the next call imports again. On 2x1 with
// the one-sided algorithms forced, node 1's segment 1 (rank 1's collective
// window; segment 0 is the MPI port) is denied once: rank 0's first
// Allreduce fails before it sends anything, with a *fault.Error of kind
// ImportDenied, and its second matches rank 1's only call, which both
// complete with the sum.
func TestOneSidedImportDeniedIsReturned(t *testing.T) {
	const n = 64
	cfg := collConfig(2, CollOneSided)
	cfg.SCI.Fault = fault.New(1).FailImports(1, 1, 1)
	in := func(r int) []byte {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64((r + 1) * (i + 1))
		}
		return Float64Bytes(v)
	}
	sums := 0
	Run(cfg, func(c *Comm) {
		out := make([]byte, 8*n)
		if c.Rank() == 0 {
			var fe *fault.Error
			if err := c.Allreduce(in(0), out, n, datatype.Float64, OpSum); !errors.As(err, &fe) || fe.Kind != fault.ImportDenied {
				t.Errorf("rank 0: allreduce over a denied import: err = %v, want a *fault.Error of kind ImportDenied", err)
			}
		}
		if err := c.Allreduce(in(c.Rank()), out, n, datatype.Float64, OpSum); err != nil {
			t.Errorf("rank %d: allreduce after the denied import: %v", c.Rank(), err)
			return
		}
		for i, got := range BytesFloat64(out) {
			if want := float64(3 * (i + 1)); got != want {
				t.Fatalf("rank %d: element %d = %g, want %g", c.Rank(), i, got, want)
			}
		}
		sums++
	})
	if sums != 2 {
		t.Errorf("%d ranks checked the sum, want 2", sums)
	}
}

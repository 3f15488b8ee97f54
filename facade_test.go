package scimpich_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"scimpich"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/sci"
)

// The facade test exercises the public API end to end: cluster, datatypes,
// point-to-point, collectives, and one-sided communication, all through the
// root package.
func TestPublicAPIEndToEnd(t *testing.T) {
	ty := scimpich.Vector(64, 2, 4, scimpich.Float64).Commit()
	src := make([]byte, ty.Extent()+64)
	for i := range src {
		src[i] = byte(i*3 + 1)
	}
	end := scimpich.Run(scimpich.DefaultConfig(2, 2), func(c *scimpich.Comm) {
		// Typed point-to-point.
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			st := must1(c.Recv(dst, 1, ty, 0, 0))
			if st.Bytes != ty.Size() {
				t.Errorf("received %d bytes, want %d", st.Bytes, ty.Size())
			}
			for _, b := range ty.TypeMap() {
				if !bytes.Equal(dst[b.Off:b.Off+b.Len], src[b.Off:b.Off+b.Len]) {
					t.Errorf("typed block at %d corrupted", b.Off)
				}
			}
		}

		// Collective.
		recv := make([]byte, 8)
		must(c.Allreduce(scimpich.Float64Bytes([]float64{1}), recv, 1, scimpich.Float64, scimpich.OpSum))
		if scimpich.BytesFloat64(recv)[0] != float64(c.Size()) {
			t.Errorf("allreduce = %g, want %d", scimpich.BytesFloat64(recv)[0], c.Size())
		}

		// One-sided.
		sys := scimpich.NewOSC(c)
		win := sys.CreateShared(c.AllocShared(64), scimpich.DefaultOSCConfig())
		must(win.Fence())
		if c.Rank() == 0 {
			must(win.Put(scimpich.Float64Bytes([]float64{2.5}), 8, scimpich.Byte, c.Size()-1, 0))
		}
		must(win.Fence())
		if c.Rank() == c.Size()-1 {
			if got := scimpich.BytesFloat64(win.LocalBytes()[:8])[0]; got != 2.5 {
				t.Errorf("window value = %g, want 2.5", got)
			}
		}
	})
	if end <= 0 {
		t.Error("virtual end time not positive")
	}
}

func TestFacadeDatatypeConstructors(t *testing.T) {
	for name, ty := range map[string]*scimpich.Type{
		"contiguous": scimpich.Contiguous(4, scimpich.Int32),
		"vector":     scimpich.Vector(2, 1, 2, scimpich.Int64),
		"hvector":    scimpich.Hvector(2, 1, 32, scimpich.Float32),
		"indexed":    scimpich.Indexed([]int{1, 2}, []int{0, 3}, scimpich.Int16),
		"hindexed":   scimpich.Hindexed([]int{1}, []int64{8}, scimpich.Char),
		"struct":     scimpich.StructOf(scimpich.Field{Type: scimpich.Byte, Blocklen: 3, Disp: 0}),
		"resized":    scimpich.Resized(scimpich.Contiguous(2, scimpich.Int32), 0, 16),
	} {
		if ty.Commit().Size() <= 0 {
			t.Errorf("%s: non-positive size", name)
		}
	}
}

// TestFacadeCallsReturnFaults: node 1 crashes after a healthy first fence,
// and every call rank 0 then aims at it — a send, a bounded receive, an
// allreduce, a put, a fence and a lock (on a second window: a fenced one
// takes no lock) — returns a typed fault instead of panicking, and Run
// returns.
func TestFacadeCallsReturnFaults(t *testing.T) {
	const crash = 2 * time.Millisecond
	cfg := scimpich.DefaultConfig(2, 1)
	cfg.SCI.Fault = fault.New(7).CrashNode(1, crash)
	cfg.Protocol.CollTimeout = mpi.AutoTimeout
	cfg.Protocol.RendezvousTimeout = mpi.AutoTimeout
	oscCfg := scimpich.DefaultOSCConfig()
	errs := map[string]error{}
	scimpich.Run(cfg, func(c *scimpich.Comm) {
		sys := scimpich.NewOSC(c)
		win := sys.CreateShared(c.AllocShared(64), oscCfg)
		lockWin := sys.CreateShared(c.AllocShared(64), oscCfg)
		if err := win.Fence(); err != nil {
			t.Errorf("rank %d: healthy fence: %v", c.Rank(), err)
		}
		if c.Rank() == 1 {
			return
		}
		if c.WtimeDuration() >= crash {
			t.Errorf("the first fence ended at %v, after the crash", c.WtimeDuration())
			return
		}
		c.Proc().Sleep(crash + time.Millisecond - c.WtimeDuration())
		buf := make([]byte, 8)
		errs["Send"] = c.Send(buf, 8, scimpich.Byte, 1, 0)
		_, errs["RecvTimeout"] = c.RecvTimeout(buf, 8, scimpich.Byte, 1, 0, mpi.AutoTimeout)
		errs["Allreduce"] = c.Allreduce(buf, make([]byte, 8), 1, scimpich.Float64, scimpich.OpSum)
		errs["Put"] = win.Put(buf, 8, scimpich.Byte, 1, 0)
		errs["Fence"] = win.Fence()
		errs["Lock"] = lockWin.Lock(1)
	})
	for _, call := range []string{"Send", "RecvTimeout", "Allreduce", "Put", "Fence", "Lock"} {
		err := errs[call]
		t.Logf("%s: %v", call, err)
		var lost sci.ErrConnectionLost
		var fe *fault.Error
		if !errors.As(err, &lost) && !errors.As(err, &fe) {
			t.Errorf("%s toward the crashed node: err = %v (%T), want a typed fault", call, err, err)
		}
	}
}

// TestNegativeRecvTimeoutRefused: a negative timeout other than
// mpi.AutoTimeout is an *mpi.ArgumentError from Recv, returned before the
// receive is posted. It used to wait forever: with no sender the run ended
// in the engine's deadlock panic. AutoTimeout still bounds the wait.
func TestNegativeRecvTimeoutRefused(t *testing.T) {
	var refused, auto error
	scimpich.Run(scimpich.DefaultConfig(2, 1), func(c *scimpich.Comm) {
		if c.Rank() != 1 {
			return
		}
		buf := make([]byte, 8)
		_, refused = c.RecvTimeout(buf, 8, scimpich.Byte, 0, 0, -5*time.Nanosecond)
		_, auto = c.RecvTimeout(buf, 8, scimpich.Byte, 0, 0, mpi.AutoTimeout)
	})
	if arg := (*mpi.ArgumentError)(nil); !errors.As(refused, &arg) || arg.Call != "Recv" {
		t.Errorf("RecvTimeout(-5ns) = %v (%T), want an *mpi.ArgumentError from Recv", refused, refused)
	}
	if fe := (*fault.Error)(nil); !errors.As(auto, &fe) {
		t.Errorf("RecvTimeout(AutoTimeout) with no sender = %v (%T), want a *fault.Error", auto, auto)
	}
}

// TestNilDatatypeRefused: every facade call that takes a datatype returns
// an *mpi.ArgumentError naming the call for a nil one, whatever the count,
// before anything is sent, posted or deposited. It used to panic the rank
// with a nil dereference.
func TestNilDatatypeRefused(t *testing.T) {
	var nilType *scimpich.Type
	errs := map[string]error{}
	scimpich.Run(scimpich.DefaultConfig(2, 1), func(c *scimpich.Comm) {
		buf := make([]byte, 64)
		win := scimpich.NewOSC(c).CreateShared(c.AllocShared(64), scimpich.DefaultOSCConfig())
		must(win.Fence())
		for _, count := range []int{0, 8} {
			calls := map[string]error{
				"Send":       c.Send(buf, count, nilType, 1-c.Rank(), 0),
				"Bcast":      c.Bcast(buf, count, nilType, 0),
				"Reduce":     c.Reduce(buf, buf, count, nilType, scimpich.OpSum, 0),
				"Allreduce":  c.Allreduce(buf, buf, count, nilType, scimpich.OpSum),
				"Gather":     c.Gather(buf, count, nilType, buf, 0),
				"Allgather":  c.Allgather(buf, count, nilType, buf),
				"Alltoall":   c.Alltoall(buf, count, nilType, buf),
				"Put":        win.Put(buf, count, nilType, 1-c.Rank(), 0),
				"Get":        win.Get(buf, count, nilType, 1-c.Rank(), 0),
				"Accumulate": win.Accumulate(buf, count, nilType, scimpich.OpSum, 1-c.Rank(), 0),
			}
			_, calls["Recv"] = c.Recv(buf, count, nilType, 1-c.Rank(), 0)
			_, calls["Sendrecv"] = c.Sendrecv(buf, count, nilType, 1-c.Rank(), 0, buf, count, nilType, 1-c.Rank(), 0)
			_, calls["Isend"] = c.Isend(buf, count, nilType, 1-c.Rank(), 0).Wait()
			_, calls["Irecv"] = c.Irecv(buf, count, nilType, 1-c.Rank(), 0).Wait()
			if c.Rank() == 0 {
				for call, err := range calls {
					errs[fmt.Sprintf("%s/count=%d", call, count)] = err
				}
			}
		}
		must(win.Fence())
	})
	if len(errs) != 28 {
		t.Fatalf("%d calls recorded, want 28", len(errs))
	}
	for name, err := range errs {
		call, _, _ := strings.Cut(name, "/")
		if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != call {
			t.Errorf("%s with a nil datatype = %v (%T), want an *mpi.ArgumentError from %s", name, err, err, call)
		}
	}
}

// must fails the calling rank on a fault the test does not expect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// must1 is must for a call that also returns a value.
func must1[T any](v T, err error) T {
	must(err)
	return v
}

package osc

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// runCluster runs main on nodes x procs ranks.
func runCluster(nodes, procs int, main func(c *mpi.Comm)) time.Duration {
	return mpi.Run(mpi.DefaultConfig(nodes, procs), main)
}

// mkWin creates a window of winSize bytes on every rank, shared or private.
func mkWin(c *mpi.Comm, winSize int64, shared bool) *Win {
	s := NewSystem(c)
	if shared {
		return s.CreateShared(c.AllocShared(winSize), DefaultConfig())
	}
	return s.CreatePrivate(make([]byte, winSize), DefaultConfig())
}

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*11 + 5)
	}
	return b
}

func TestPutFenceSharedWindow(t *testing.T) {
	src := fill(4096)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 8192, true)
		must(w.Fence())
		if c.Rank() == 0 {
			must(w.Put(src, 4096, datatype.Byte, 1, 100))
		}
		must(w.Fence())
		if c.Rank() == 1 {
			if !bytes.Equal(w.LocalBytes()[100:100+4096], src) {
				t.Error("put data not visible after fence")
			}
			if w.Snapshot().Puts != 0 {
				t.Error("target should have issued no puts")
			}
		}
		if c.Rank() == 0 && w.Snapshot().DirectPuts != 1 {
			t.Errorf("direct puts = %d, want 1 (shared window)", w.Snapshot().DirectPuts)
		}
	})
}

func TestPutFencePrivateWindowUsesEmulation(t *testing.T) {
	src := fill(256 << 10)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 512<<10, false)
		must(w.Fence())
		if c.Rank() == 0 {
			must(w.Put(src, len(src), datatype.Byte, 1, 64))
		}
		must(w.Fence())
		if c.Rank() == 1 && !bytes.Equal(w.LocalBytes()[64:64+len(src)], src) {
			t.Error("emulated put data mismatch")
		}
		if c.Rank() == 0 {
			if w.Snapshot().EmulatedPuts != 1 || w.Snapshot().DirectPuts != 0 {
				t.Errorf("stats = %+v, want 1 emulated put", w.Snapshot())
			}
		}
	})
}

func TestGetDirectSmallSharedWindow(t *testing.T) {
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 4096, true)
		if c.Rank() == 1 {
			copy(w.LocalBytes()[200:], fill(512))
		}
		must(w.Fence())
		if c.Rank() == 0 {
			dst := make([]byte, 512)
			must(w.Get(dst, 512, datatype.Byte, 1, 200))
			if !bytes.Equal(dst, fill(512)) {
				t.Error("direct get mismatch")
			}
			if w.Snapshot().DirectGets != 1 {
				t.Errorf("stats = %+v, want 1 direct get", w.Snapshot())
			}
		}
		must(w.Fence())
	})
}

func TestGetLargeUsesRemotePut(t *testing.T) {
	const n = 256 << 10
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, n, true)
		if c.Rank() == 1 {
			copy(w.LocalBytes(), fill(n))
		}
		must(w.Fence())
		if c.Rank() == 0 {
			dst := make([]byte, n)
			must(w.Get(dst, n, datatype.Byte, 1, 0))
			if !bytes.Equal(dst, fill(n)) {
				t.Error("remote-put get mismatch")
			}
			if w.Snapshot().RemotePuts == 0 || w.Snapshot().DirectGets != 0 {
				t.Errorf("stats = %+v, want remote-put path", w.Snapshot())
			}
		}
		must(w.Fence())
	})
}

func TestRemotePutFasterThanDirectReadForLargeGets(t *testing.T) {
	// The rationale for the threshold (paper §4.2).
	const n = 128 << 10
	elapsed := func(directMax int64) time.Duration {
		var d time.Duration
		runCluster(2, 1, func(c *mpi.Comm) {
			s := NewSystem(c)
			cfg := DefaultConfig()
			cfg.GetDirectMax = directMax
			w := s.CreateShared(c.AllocShared(n), cfg)
			must(w.Fence())
			if c.Rank() == 0 {
				dst := make([]byte, n)
				start := c.WtimeDuration()
				must(w.Get(dst, n, datatype.Byte, 1, 0))
				d = c.WtimeDuration() - start
			}
			must(w.Fence())
		})
		return d
	}
	direct := elapsed(1 << 30) // force direct reads
	remote := elapsed(1024)    // force remote-put
	if remote >= direct {
		t.Errorf("remote-put get (%v) not faster than direct read (%v) for 128kiB", remote, direct)
	}
}

func TestAccumulateSum(t *testing.T) {
	const procs = 4
	runCluster(procs, 1, func(c *mpi.Comm) {
		w := mkWin(c, 8*8, true)
		must(w.Fence())
		// Every rank accumulates its rank id into all 8 slots of rank 0.
		vals := make([]float64, 8)
		for i := range vals {
			vals[i] = float64(c.Rank() + 1)
		}
		must(w.Accumulate(mpi.Float64Bytes(vals), 8, datatype.Float64, mpi.OpSum, 0, 0))
		must(w.Fence())
		if c.Rank() == 0 {
			got := mpi.BytesFloat64(w.LocalBytes())
			want := float64(1 + 2 + 3 + 4)
			for i, v := range got {
				if v != want {
					t.Fatalf("slot %d = %g, want %g", i, v, want)
				}
			}
		}
	})
}

func TestAccumulateAtomicUnderContention(t *testing.T) {
	// Many concurrent accumulates from all ranks must not lose updates.
	const procs = 6
	const rounds = 50
	runCluster(3, 2, func(c *mpi.Comm) {
		w := mkWin(c, 8, true)
		must(w.Fence())
		one := mpi.Float64Bytes([]float64{1})
		for i := 0; i < rounds; i++ {
			must(w.Accumulate(one, 1, datatype.Float64, mpi.OpSum, 0, 0))
		}
		must(w.Fence())
		if c.Rank() == 0 {
			got := mpi.BytesFloat64(w.LocalBytes())[0]
			if got != procs*rounds {
				t.Errorf("accumulated %g, want %d", got, procs*rounds)
			}
		}
	})
}

func TestNonContiguousPutMirrorsLayout(t *testing.T) {
	ty := datatype.Vector(16, 2, 4, datatype.Float64).Commit()
	span := ty.Extent()
	src := fill(int(span) + 64)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, span+128, true)
		must(w.Fence())
		if c.Rank() == 0 {
			must(w.Put(src, 1, ty, 1, 0))
		}
		must(w.Fence())
		if c.Rank() == 1 {
			win := w.LocalBytes()
			for _, b := range ty.TypeMap() {
				if !bytes.Equal(win[b.Off:b.Off+b.Len], src[b.Off:b.Off+b.Len]) {
					t.Fatalf("block at %d mismatched", b.Off)
				}
			}
			// Gaps untouched.
			if win[16] != 0 && len(ty.TypeMap()) > 1 {
				covered := false
				for _, b := range ty.TypeMap() {
					if b.Off <= 16 && 16 < b.Off+b.Len {
						covered = true
					}
				}
				if !covered && win[16] != 0 {
					t.Error("gap byte overwritten")
				}
			}
		}
	})
}

func TestNonContiguousGetRoundTrip(t *testing.T) {
	ty := datatype.Vector(32, 1, 3, datatype.Float64).Commit()
	span := ty.Extent()
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, span+64, true)
		if c.Rank() == 1 {
			copy(w.LocalBytes(), fill(int(span)))
		}
		must(w.Fence())
		if c.Rank() == 0 {
			dst := make([]byte, span+64)
			must(w.Get(dst, 1, ty, 1, 0))
			win := fill(int(span))
			for _, b := range ty.TypeMap() {
				if !bytes.Equal(dst[b.Off:b.Off+b.Len], win[b.Off:b.Off+b.Len]) {
					t.Fatalf("got block at %d mismatched", b.Off)
				}
			}
		}
		must(w.Fence())
	})
}

func TestPSCWSynchronization(t *testing.T) {
	src := fill(8192)
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 16384, true)
		switch c.Rank() {
		case 0: // origin
			must(w.Start([]int{1}))
			must(w.Put(src, len(src), datatype.Byte, 1, 0))
			must(w.Complete([]int{1}))
		case 1: // target
			must(w.Post([]int{0}))
			must(w.Wait([]int{0}))
			if !bytes.Equal(w.LocalBytes()[:len(src)], src) {
				t.Error("PSCW put data missing after Wait")
			}
		}
	})
}

func TestPSCWStartBlocksUntilPost(t *testing.T) {
	var startDone time.Duration
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 64, true)
		switch c.Rank() {
		case 0:
			must(w.Start([]int{1}))
			startDone = c.WtimeDuration()
			must(w.Complete([]int{1}))
		case 1:
			c.Proc().Sleep(500 * time.Microsecond)
			must(w.Post([]int{0}))
			must(w.Wait([]int{0}))
		}
	})
	if startDone < 500*time.Microsecond {
		t.Errorf("Start returned at %v, before the target posted", startDone)
	}
}

// TestPSCWPostMatchesLaterStart: a post that arrives while its origin
// waits in a Start whose group does not hold the sender is kept for the
// first later Start whose group does (MPI matches posts to Starts so). Rank
// 2 posts at once, while rank 0 waits in Start({1}) for rank 1's post,
// 200 µs later; rank 0's Start({2}) then takes rank 2's early post.
func TestPSCWPostMatchesLaterStart(t *testing.T) {
	a, b := fill(256), fill(512)[256:]
	runCluster(3, 1, func(c *mpi.Comm) {
		w := mkWin(c, 4096, false)
		switch c.Rank() {
		case 0:
			must(w.Start([]int{1}))
			must(w.Put(a, len(a), datatype.Byte, 1, 0))
			must(w.Complete([]int{1}))
			must(w.Start([]int{2}))
			must(w.Put(b, len(b), datatype.Byte, 2, 0))
			must(w.Complete([]int{2}))
		case 1:
			c.Proc().Sleep(200 * time.Microsecond)
			must(w.Post([]int{0}))
			must(w.Wait([]int{0}))
			if !bytes.Equal(w.LocalBytes()[:len(a)], a) {
				t.Error("rank 1: put of the first access epoch missing")
			}
		case 2:
			must(w.Post([]int{0}))
			must(w.Wait([]int{0}))
			if !bytes.Equal(w.LocalBytes()[:len(b)], b) {
				t.Error("rank 2: put of the second access epoch missing")
			}
		}
	})
}

func TestLockUnlockPassiveTargetShared(t *testing.T) {
	const procs = 4
	const rounds = 20
	runCluster(procs, 1, func(c *mpi.Comm) {
		w := mkWin(c, 8, true)
		must(w.Fence())
		w.ep = epochNone // leave the fence epoch; passive target only below
		for i := 0; i < rounds; i++ {
			must(w.Lock(0))
			buf := make([]byte, 8)
			must(w.Get(buf, 8, datatype.Byte, 0, 0))
			v := mpi.BytesFloat64(buf)[0]
			must(w.Put(mpi.Float64Bytes([]float64{v + 1}), 8, datatype.Byte, 0, 0))
			must(w.Unlock(0))
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			got := mpi.BytesFloat64(w.LocalBytes())[0]
			if got != procs*rounds {
				t.Errorf("counter = %g, want %d (lost updates -> mutual exclusion broken)", got, procs*rounds)
			}
		}
	})
}

func TestLockUnlockPassiveTargetPrivate(t *testing.T) {
	const procs = 3
	const rounds = 10
	runCluster(procs, 1, func(c *mpi.Comm) {
		w := mkWin(c, 8, false)
		must(c.Barrier())
		for i := 0; i < rounds; i++ {
			must(w.Lock(0))
			buf := make([]byte, 8)
			must(w.Get(buf, 8, datatype.Byte, 0, 0))
			v := mpi.BytesFloat64(buf)[0]
			must(w.Put(mpi.Float64Bytes([]float64{v + 1}), 8, datatype.Byte, 0, 0))
			must(w.Unlock(0))
		}
		must(c.Barrier())
		if c.Rank() == 0 {
			got := mpi.BytesFloat64(w.LocalBytes())[0]
			if got != procs*rounds {
				t.Errorf("counter = %g, want %d", got, procs*rounds)
			}
		}
	})
}

func TestIntraNodeWindow(t *testing.T) {
	src := fill(32 << 10)
	runCluster(1, 2, func(c *mpi.Comm) {
		w := mkWin(c, 64<<10, true)
		must(w.Fence())
		if c.Rank() == 0 {
			must(w.Put(src, len(src), datatype.Byte, 1, 0))
		}
		must(w.Fence())
		if c.Rank() == 1 && !bytes.Equal(w.LocalBytes()[:len(src)], src) {
			t.Error("intra-node put mismatch")
		}
	})
}

func TestSelfAccess(t *testing.T) {
	runCluster(2, 1, func(c *mpi.Comm) {
		w := mkWin(c, 1024, true)
		must(w.Fence())
		me := c.Rank()
		must(w.Put(fill(100), 100, datatype.Byte, me, 10))
		dst := make([]byte, 100)
		must(w.Get(dst, 100, datatype.Byte, me, 10))
		if !bytes.Equal(dst, fill(100)) {
			t.Error("self put/get mismatch")
		}
		must(w.Fence())
	})
}

// TestAccessOutsideEpochPanics: epoch misuse does not panic. A Put, Get or
// Accumulate outside an epoch, an Unlock without its Lock, a Complete
// without its Start, and a Lock or Start inside the lock's epoch each
// return an *mpi.ArgumentError naming
// the call, on a shared and on a private window; nothing is sent, the
// target's window keeps its bytes, and the epoch is unchanged.
func TestAccessOutsideEpochPanics(t *testing.T) {
	buf := fill(64)
	for _, shared := range []bool{true, false} {
		var target []byte
		runCluster(2, 1, func(c *mpi.Comm) {
			w := mkWin(c, 64, shared)
			if c.Rank() == 0 {
				check := func(call string, err error, ep epoch) {
					if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != call {
						t.Errorf("shared %v: %s: err = %v (%T), want an *mpi.ArgumentError from %s", shared, call, err, err, call)
					}
					if w.ep != ep {
						t.Errorf("shared %v: after a refused %s: epoch %v, want %v", shared, call, w.ep, ep)
					}
				}
				check("Put", w.Put(buf, 8, datatype.Byte, 1, 0), epochNone)
				check("Get", w.Get(buf, 8, datatype.Byte, 1, 0), epochNone)
				check("Accumulate", w.Accumulate(buf, 1, datatype.Int64, mpi.OpSum, 1, 0), epochNone)
				check("Unlock", w.Unlock(1), epochNone)
				check("Complete", w.Complete([]int{1}), epochNone)
				must(w.Lock(1))
				check("Lock", w.Lock(1), epochLock)
				check("Start", w.Start([]int{1}), epochLock)
				check("Unlock", w.Unlock(0), epochLock)
				must(w.Unlock(1))
				if st := w.Snapshot(); st.Puts+st.Gets+st.Accs != 0 || st.Locks != 1 {
					t.Errorf("shared %v: stats = %+v, want no access and one lock", shared, st)
				}
			}
			must(c.Barrier())
			if c.Rank() == 1 {
				target = w.LocalBytes()
			}
		})
		if !bytes.Equal(target, make([]byte, 64)) {
			t.Errorf("shared %v: a refused call changed the target's window", shared)
		}
	}
}

// TestAccessOutsideWindowPanics: a put past the target's window, also one
// whose end would wrap past math.MaxInt64, or to a rank outside the group
// does not panic: it is an *mpi.ArgumentError naming the access, on shared
// and private windows, and the target's window keeps its bytes. Nor does a
// synchronization call naming a rank outside the group: Lock, Start, Post,
// Wait and Complete each return an *mpi.ArgumentError naming the call,
// before anything is sent.
func TestAccessOutsideWindowPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		shared bool
		target int
		n      int
		off    int64
		want   string
	}{
		{"shared", true, 1, 128, 0, "access [0, 128) outside window of 64 bytes at rank 1"},
		{"shared-near-max-offset", true, 1, 64, math.MaxInt64 - 4, "access [9223372036854775803, "},
		{"private-near-max-offset", false, 1, 64, math.MaxInt64 - 4, "access [9223372036854775803, "},
		{"invalid-target", true, 2, 8, 0, "invalid target rank 2"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var err error
			var target []byte
			runCluster(2, 1, func(comm *mpi.Comm) {
				w := mkWin(comm, 64, c.shared)
				must(w.Fence())
				if comm.Rank() == 0 {
					err = w.Put(fill(c.n), c.n, datatype.Byte, c.target, c.off)
				}
				must(w.Fence())
				if comm.Rank() == 1 {
					target = w.LocalBytes()
				}
			})
			if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != "Put" || !strings.Contains(arg.Reason, c.want) {
				t.Errorf("err = %v (%T), want an *mpi.ArgumentError from Put naming %q", err, err, c.want)
			}
			if !bytes.Equal(target, make([]byte, 64)) {
				t.Error("a refused put changed the target's window")
			}
		})
	}
	for _, c := range []struct {
		call string
		op   func(w *Win) error
	}{
		{"Lock", func(w *Win) error { return w.Lock(5) }},
		{"Start", func(w *Win) error { return w.Start([]int{1, 5}) }},
		{"Post", func(w *Win) error { return w.Post([]int{-1}) }},
		{"Wait", func(w *Win) error { return w.Wait([]int{5}) }},
		{"Complete", func(w *Win) error { must(w.Start(nil)); return w.Complete([]int{5}) }},
	} {
		t.Run(strings.ToLower(c.call)+"-invalid-rank", func(t *testing.T) {
			var err error
			var st Stats
			runCluster(2, 1, func(comm *mpi.Comm) {
				w := mkWin(comm, 64, false)
				if comm.Rank() == 0 {
					err = c.op(w)
					st = w.Snapshot()
				}
				must(comm.Barrier())
			})
			if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != c.call || !strings.Contains(arg.Reason, "invalid target rank") {
				t.Errorf("err = %v (%T), want an *mpi.ArgumentError from %s naming the rank", err, err, c.call)
			}
			if st.Locks+st.Posts != 0 {
				t.Errorf("stats = %+v, want no lock or post counted", st)
			}
		})
	}
}

// TestOriginBufferChecked: an origin buffer that cannot hold count elements
// (8 B for four doubles, or a vector whose lower bound is negative) is an
// *mpi.ArgumentError naming the call, returned before anything moves.
func TestOriginBufferChecked(t *testing.T) {
	buf, negativeLB := make([]byte, 8), datatype.Vector(4, 1, -2, datatype.Float64).Commit()
	for _, tc := range []struct {
		call string
		op   func(w *Win) error
	}{
		{"Put", func(w *Win) error { return w.Put(buf, 4, datatype.Float64, 1, 0) }},
		{"Get", func(w *Win) error { return w.Get(buf, 4, datatype.Float64, 1, 0) }},
		{"Accumulate", func(w *Win) error { return w.Accumulate(buf, 4, datatype.Float64, mpi.OpSum, 1, 0) }},
		{"Put", func(w *Win) error { return w.Put(make([]byte, 64), 1, negativeLB, 1, 64) }},
	} {
		var err error
		runCluster(2, 1, func(c *mpi.Comm) {
			w := mkWin(c, 1024, true)
			must(w.Fence())
			if c.Rank() == 0 {
				err = tc.op(w)
			}
			must(w.Fence())
		})
		if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != tc.call {
			t.Errorf("%s: err = %v (%T), want an *mpi.ArgumentError", tc.call, err, err)
		}
	}
}

// TestAccumulateRefusesDerivedTypes: Accumulate over a derived datatype —
// a contiguous run of doubles or a vector — is an *mpi.ArgumentError naming
// the call on a shared and on a private window, returned before anything
// moves: no accumulate is counted and the target's window keeps its bytes.
func TestAccumulateRefusesDerivedTypes(t *testing.T) {
	for _, dt := range []*datatype.Type{
		datatype.Contiguous(4, datatype.Float64).Commit(),
		datatype.Vector(4, 1, 2, datatype.Float64).Commit(),
	} {
		for _, shared := range []bool{true, false} {
			var err error
			var accs int64
			var target []byte
			runCluster(2, 1, func(c *mpi.Comm) {
				w := mkWin(c, 1024, shared)
				must(w.Fence())
				if c.Rank() == 0 {
					err = w.Accumulate(make([]byte, 256), 2, dt, mpi.OpSum, 1, 0)
					accs = w.Snapshot().Accs
				}
				must(w.Fence())
				if c.Rank() == 1 {
					target = w.LocalBytes()
				}
			})
			if arg := (*mpi.ArgumentError)(nil); !errors.As(err, &arg) || arg.Call != "Accumulate" {
				t.Errorf("%s (shared %v): err = %v (%T), want an *mpi.ArgumentError from Accumulate", dt, shared, err, err)
			}
			if accs != 0 || !bytes.Equal(target, make([]byte, len(target))) {
				t.Errorf("%s (shared %v): %d accumulates counted and the target's window changed, want none", dt, shared, accs)
			}
		}
	}
}

func TestSharedGetFasterThanPrivate(t *testing.T) {
	// Paper figure 9: direct access to shared windows beats the emulated
	// path for small accesses (for larger ones both go through message
	// exchange and converge).
	const n = 64
	elapsed := func(shared bool) time.Duration {
		var d time.Duration
		runCluster(2, 1, func(c *mpi.Comm) {
			w := mkWin(c, 8192, shared)
			must(w.Fence())
			if c.Rank() == 0 {
				dst := make([]byte, n)
				start := c.WtimeDuration()
				for i := 0; i < 16; i++ {
					must(w.Get(dst, n, datatype.Byte, 1, 0))
				}
				d = c.WtimeDuration() - start
			}
			must(w.Fence())
		})
		return d
	}
	sh, priv := elapsed(true), elapsed(false)
	if sh >= priv {
		t.Errorf("shared-window gets (%v) not faster than emulated (%v)", sh, priv)
	}
}

func TestMixedSharedAndPrivateWindows(t *testing.T) {
	// Rank 0 shared, rank 1 private: accesses route per target.
	src := fill(64 << 10)
	runCluster(2, 1, func(c *mpi.Comm) {
		s := NewSystem(c)
		var w *Win
		if c.Rank() == 0 {
			w = s.CreateShared(c.AllocShared(128<<10), DefaultConfig())
		} else {
			w = s.CreatePrivate(make([]byte, 128<<10), DefaultConfig())
		}
		must(w.Fence())
		other := 1 - c.Rank()
		must(w.Put(src, len(src), datatype.Byte, other, 0))
		must(w.Fence())
		if !bytes.Equal(w.LocalBytes()[:len(src)], src) {
			t.Errorf("rank %d: window contents wrong", c.Rank())
		}
		if c.Rank() == 0 && w.Snapshot().EmulatedPuts != 1 {
			t.Errorf("rank 0 put to private window: stats %+v", w.Snapshot())
		}
		if c.Rank() == 1 && w.Snapshot().DirectPuts != 1 {
			t.Errorf("rank 1 put to shared window: stats %+v", w.Snapshot())
		}
	})
}

func TestDeterministicOneSidedRuns(t *testing.T) {
	run := func() time.Duration {
		return runCluster(4, 1, func(c *mpi.Comm) {
			w := mkWin(c, 64<<10, true)
			must(w.Fence())
			buf := fill(1024)
			for i := 0; i < 8; i++ {
				must(w.Put(buf, 1024, datatype.Byte, (c.Rank()+1)%c.Size(), int64(i)*2048))
			}
			must(w.Fence())
		})
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical one-sided runs ended at %v and %v", a, b)
	}
}

// must fails the calling rank on a fault the test does not expect.
// expiries is the calling rank's count of expired waits, mpi's one count
// of them (mpi.DeviceStats.WatchdogExpiries).
func expiries(c *mpi.Comm) int64 { return c.World().Stats(c.WorldRank()).WatchdogExpiries }

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

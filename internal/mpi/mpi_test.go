package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
)

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + 7)
	}
	return b
}

// runPair runs main on a 2-node, 1-proc-per-node cluster.
func runPair(t *testing.T, main func(c *Comm)) time.Duration {
	t.Helper()
	return Run(DefaultConfig(2, 1), main)
}

func TestSendRecvSizesInterNode(t *testing.T) {
	// Cover short (64B), eager (4kiB) and rendezvous (512kiB) paths.
	for _, size := range []int{0, 64, 4096, 512 << 10} {
		size := size
		t.Run(fmt.Sprintf("%dB", size), func(t *testing.T) {
			src := fill(size)
			runPair(t, func(c *Comm) {
				switch c.Rank() {
				case 0:
					must(c.Send(src, size, datatype.Byte, 1, 5))
				case 1:
					dst := make([]byte, size)
					st := must1(c.Recv(dst, size, datatype.Byte, 0, 5))
					if st.Bytes != int64(size) || st.Source != 0 || st.Tag != 5 {
						t.Errorf("status = %+v, want %d bytes from 0 tag 5", st, size)
					}
					if !bytes.Equal(dst, src) {
						t.Error("received data mismatch")
					}
				}
			})
		})
	}
}

func TestSendRecvIntraNode(t *testing.T) {
	src := fill(256 << 10)
	Run(DefaultConfig(1, 2), func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, len(src), datatype.Byte, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			must1(c.Recv(dst, len(dst), datatype.Byte, 0, 0))
			if !bytes.Equal(dst, src) {
				t.Error("intra-node data mismatch")
			}
		}
	})
}

// TestWorldSizesItsInterconnect: the interconnect spans Config.Nodes and
// reports to Config.Metrics and Config.Flight, so a node count raised after
// DefaultConfig needs no second edit in Config.SCI.
func TestWorldSizesItsInterconnect(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Nodes = 4
	cfg.Metrics, cfg.Flight = obs.NewRegistry(), flight.New(0)
	src := fill(4096)
	var w *World
	Run(cfg, func(c *Comm) {
		if c.Rank() == 0 {
			w = c.World()
			for dst := 1; dst < c.Size(); dst++ {
				must(c.Send(src, len(src), datatype.Byte, dst, 0))
			}
			return
		}
		dst := make([]byte, len(src))
		must1(c.Recv(dst, len(dst), datatype.Byte, 0, 0))
		if !bytes.Equal(dst, src) {
			t.Errorf("rank %d: received data mismatch", c.Rank())
		}
	})
	if got := w.ic.Nodes(); got != 4 {
		t.Errorf("interconnect has %d nodes, want 4", got)
	}
	if w.ic.Cfg.Metrics != cfg.Metrics || w.ic.Cfg.Flight != cfg.Flight {
		t.Error("interconnect does not report to the world's registry and recorder")
	}
}

func TestSelfSend(t *testing.T) {
	runPair(t, func(c *Comm) {
		if c.Rank() != 0 {
			return
		}
		src := fill(1000)
		dst := make([]byte, 1000)
		must(c.Send(src, 1000, datatype.Byte, 0, 9))
		must1(c.Recv(dst, 1000, datatype.Byte, 0, 9))
		if !bytes.Equal(dst, src) {
			t.Error("self-send mismatch")
		}
	})
}

func TestNonContiguousRoundTripFF(t *testing.T) {
	// 256 kiB payload in 128-byte blocks with equal gaps (the noncontig
	// benchmark's shape), sent with a vector type on both sides.
	const blocks = 2048
	ty := datatype.Vector(blocks, 16, 32, datatype.Float64).Commit()
	extent := ty.Extent()
	src := fill(int(extent) + 64)
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			st := must1(c.Recv(dst, 1, ty, 0, 0))
			if st.Bytes != ty.Size() {
				t.Errorf("received %d bytes, want %d", st.Bytes, ty.Size())
			}
			checkTyped(t, ty, src, dst)
		}
	})
}

// checkTyped verifies dst matches src on the type's data bytes and is
// untouched (zero) in the gaps.
func checkTyped(t *testing.T, ty *datatype.Type, src, dst []byte) {
	t.Helper()
	covered := make([]bool, len(src))
	for _, b := range ty.TypeMap() {
		for j := int64(0); j < b.Len; j++ {
			covered[b.Off+j] = true
		}
	}
	for i := range dst {
		if covered[i] && dst[i] != src[i] {
			t.Fatalf("data byte %d mismatch", i)
		}
		if !covered[i] && dst[i] != 0 {
			t.Fatalf("gap byte %d overwritten", i)
		}
	}
}

func TestNonContiguousGenericBaseline(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	cfg.Protocol.UseFF = false
	ty := datatype.Vector(1024, 32, 64, datatype.Float64).Commit()
	src := fill(int(ty.Extent()) + 64)
	Run(cfg, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			dst := make([]byte, len(src))
			must1(c.Recv(dst, 1, ty, 0, 0))
			checkTyped(t, ty, src, dst)
		}
	})
}

func TestFFFasterThanGenericForStridedVector(t *testing.T) {
	// The core claim of paper §3.4: direct_pack_ff beats the generic
	// pipeline for reasonable block sizes.
	ty := datatype.Vector(2048, 16, 32, datatype.Float64).Commit() // 128B blocks, 256 kiB payload
	src := fill(int(ty.Extent()) + 64)
	elapsed := func(useFF bool) time.Duration {
		cfg := DefaultConfig(2, 1)
		cfg.Protocol.UseFF = useFF
		var d time.Duration
		Run(cfg, func(c *Comm) {
			switch c.Rank() {
			case 0:
				start := c.WtimeDuration()
				for i := 0; i < 4; i++ {
					must(c.Send(src, 1, ty, 1, i))
				}
				d = c.WtimeDuration() - start
			case 1:
				dst := make([]byte, len(src))
				for i := 0; i < 4; i++ {
					must1(c.Recv(dst, 1, ty, 0, i))
				}
			}
		})
		return d
	}
	ff, gen := elapsed(true), elapsed(false)
	if ff >= gen {
		t.Errorf("direct_pack_ff (%v) not faster than generic (%v) for 128B blocks", ff, gen)
	}
}

func TestMixedTypesAcrossSides(t *testing.T) {
	// Sender strided, receiver contiguous: the classic pack-on-send-only
	// case. Data must arrive densely packed.
	ty := datatype.Vector(512, 8, 16, datatype.Float64).Commit()
	src := fill(int(ty.Extent()) + 64)
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(src, 1, ty, 1, 0))
		case 1:
			dst := make([]byte, ty.Size())
			must1(c.Recv(dst, int(ty.Size()), datatype.Byte, 0, 0))
			// Expected: the canonical linearization (vector types have a
			// single leaf, so ff and canonical coincide).
			var want []byte
			for _, b := range ty.TypeMap() {
				want = append(want, src[b.Off:b.Off+b.Len]...)
			}
			if !bytes.Equal(dst, want) {
				t.Error("contiguous receive of strided send mismatched")
			}
		}
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			a := []byte{1}
			b := []byte{2}
			must(c.Send(a, 1, datatype.Byte, 1, 10))
			must(c.Send(b, 1, datatype.Byte, 1, 20))
		case 1:
			buf := make([]byte, 1)
			// Receive tag 20 first, although tag 10 arrived earlier.
			must1(c.Recv(buf, 1, datatype.Byte, 0, 20))
			if buf[0] != 2 {
				t.Errorf("tag-20 recv got %d, want 2", buf[0])
			}
			st := must1(c.Recv(buf, 1, datatype.Byte, AnySource, AnyTag))
			if buf[0] != 1 || st.Tag != 10 {
				t.Errorf("wildcard recv got %d tag %d, want 1 tag 10", buf[0], st.Tag)
			}
		}
	})
}

func TestMessageOrderingPerPair(t *testing.T) {
	// Non-overtaking: same source, same tag: messages arrive in order.
	const n = 20
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				must(c.Send([]byte{byte(i)}, 1, datatype.Byte, 1, 0))
			}
		case 1:
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				must1(c.Recv(buf, 1, datatype.Byte, 0, 0))
				if buf[0] != byte(i) {
					t.Fatalf("message %d overtaken by %d", i, buf[0])
				}
			}
		}
	})
}

func TestEagerCreditBackpressure(t *testing.T) {
	// More in-flight eager sends than slots: the sender must block until
	// credits return, and no data may be lost.
	const msgs = 30
	const size = 4096
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < msgs; i++ {
				buf := bytes.Repeat([]byte{byte(i + 1)}, size)
				must(c.Send(buf, size, datatype.Byte, 1, i))
			}
		case 1:
			// Delay receiving so sends must queue.
			c.Proc().Sleep(time.Millisecond)
			buf := make([]byte, size)
			for i := 0; i < msgs; i++ {
				must1(c.Recv(buf, size, datatype.Byte, 0, i))
				if buf[0] != byte(i+1) || buf[size-1] != byte(i+1) {
					t.Fatalf("message %d corrupted", i)
				}
			}
		}
	})
}

func TestIsendIrecvOverlap(t *testing.T) {
	runPair(t, func(c *Comm) {
		const size = 64 << 10
		switch c.Rank() {
		case 0:
			a := fill(size)
			b := fill(size)
			ra := c.Isend(a, size, datatype.Byte, 1, 1)
			rb := c.Isend(b, size, datatype.Byte, 1, 2)
			must1(ra.Wait())
			must1(rb.Wait())
		case 1:
			a := make([]byte, size)
			b := make([]byte, size)
			rb := c.Irecv(b, size, datatype.Byte, 0, 2)
			ra := c.Irecv(a, size, datatype.Byte, 0, 1)
			must1(ra.Wait())
			must1(rb.Wait())
			if !bytes.Equal(a, fill(size)) || !bytes.Equal(b, fill(size)) {
				t.Error("overlapped transfers corrupted data")
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	runPair(t, func(c *Comm) {
		peer := 1 - c.Rank()
		out := []byte{byte(c.Rank() + 40)}
		in := make([]byte, 1)
		must1(c.Sendrecv(out, 1, datatype.Byte, peer, 0, in, 1, datatype.Byte, peer, 0))
		if in[0] != byte(peer+40) {
			t.Errorf("rank %d received %d, want %d", c.Rank(), in[0], peer+40)
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	var releases [4]time.Duration
	Run(DefaultConfig(4, 1), func(c *Comm) {
		c.Proc().Sleep(time.Duration(c.Rank()) * 100 * time.Microsecond)
		must(c.Barrier())
		releases[c.Rank()] = c.WtimeDuration()
	})
	latest := releases[3]
	for r, at := range releases {
		if at < 300*time.Microsecond {
			t.Errorf("rank %d released at %v, before the slowest rank arrived", r, at)
		}
		if latest-at > time.Millisecond || at-latest > time.Millisecond {
			t.Errorf("rank %d released at %v, far from %v", r, at, latest)
		}
	}
}

func TestBcastVariousRootsAndSizes(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4} {
		for root := 0; root < procs; root++ {
			payload := fill(10000)
			Run(DefaultConfig(procs, 1), func(c *Comm) {
				buf := make([]byte, len(payload))
				if c.Rank() == root {
					copy(buf, payload)
				}
				must(c.Bcast(buf, len(buf), datatype.Byte, root))
				if !bytes.Equal(buf, payload) {
					t.Errorf("procs=%d root=%d rank=%d: bcast mismatch", procs, root, c.Rank())
				}
			})
		}
	}
}

func TestReduceSum(t *testing.T) {
	const procs = 5
	const count = 100
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		vals := make([]float64, count)
		for i := range vals {
			vals[i] = float64(c.Rank()*count + i)
		}
		recv := make([]byte, count*8)
		must(c.Reduce(Float64Bytes(vals), recv, count, datatype.Float64, OpSum, 2))
		if c.Rank() == 2 {
			got := BytesFloat64(recv)
			for i := range got {
				want := 0.0
				for r := 0; r < procs; r++ {
					want += float64(r*count + i)
				}
				if got[i] != want {
					t.Fatalf("element %d = %g, want %g", i, got[i], want)
				}
			}
		}
	})
}

func TestAllreduceMax(t *testing.T) {
	const procs = 4
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		v := []int32{int32(c.Rank() * 10), int32(100 - c.Rank())}
		recv := make([]byte, 8)
		must(c.Allreduce(Int32Bytes(v), recv, 2, datatype.Int32, OpMax))
		got := BytesInt32(recv)
		if got[0] != 30 || got[1] != 100 {
			t.Errorf("rank %d: allreduce = %v, want [30 100]", c.Rank(), got)
		}
	})
}

func TestGather(t *testing.T) {
	const procs, count, root = 4, 3, 1
	Run(DefaultConfig(procs, 1), func(c *Comm) {
		mine := make([]int32, count)
		for i := range mine {
			mine[i] = int32(10*c.Rank() + i)
		}
		all := make([]byte, 4*procs*count)
		must(c.Gather(Int32Bytes(mine), count, datatype.Int32, all, root))
		if c.Rank() != root {
			return
		}
		for i, v := range BytesInt32(all) {
			if want := int32(10*(i/count) + i%count); v != want {
				t.Fatalf("gather element %d = %d, want %d", i, v, want)
			}
		}
	})
}

func TestSMPClusterMixedTransports(t *testing.T) {
	// 2 nodes x 2 procs: ranks 0,1 share node 0; ranks 2,3 share node 1.
	// A ring exchange exercises both transports.
	const size = 32 << 10
	Run(DefaultConfig(2, 2), func(c *Comm) {
		next := (c.Rank() + 1) % c.Size()
		prev := (c.Rank() + c.Size() - 1) % c.Size()
		out := bytes.Repeat([]byte{byte(c.Rank() + 1)}, size)
		in := make([]byte, size)
		must1(c.Sendrecv(out, size, datatype.Byte, next, 0, in, size, datatype.Byte, prev, 0))
		if in[0] != byte(prev+1) || in[size-1] != byte(prev+1) {
			t.Errorf("rank %d: ring exchange mismatch", c.Rank())
		}
	})
}

func TestIntraNodeFasterThanInterNode(t *testing.T) {
	const size = 1 << 20
	elapsed := func(cfg Config) time.Duration {
		var d time.Duration
		src := make([]byte, size)
		Run(cfg, func(c *Comm) {
			switch c.Rank() {
			case 0:
				start := c.WtimeDuration()
				must(c.Send(src, size, datatype.Byte, 1, 0))
				must1(c.Recv(src[:1], 1, datatype.Byte, 1, 1))
				d = c.WtimeDuration() - start
			case 1:
				dst := make([]byte, size)
				must1(c.Recv(dst, size, datatype.Byte, 0, 0))
				must(c.Send(dst[:1], 1, datatype.Byte, 0, 1))
			}
		})
		return d
	}
	intra := elapsed(DefaultConfig(1, 2))
	inter := elapsed(DefaultConfig(2, 1))
	if intra >= inter {
		t.Errorf("intra-node 1MiB transfer (%v) not faster than inter-node (%v)", intra, inter)
	}
}

func TestTruncationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("truncating receive did not panic")
		}
	}()
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(make([]byte, 100), 100, datatype.Byte, 1, 0))
		case 1:
			must1(c.Recv(make([]byte, 10), 10, datatype.Byte, 0, 0))
		}
	})
}

// TestRendezvousChunkRefused: a world whose rendezvous chunk is not a
// positive multiple of 8 is refused at construction, naming the field: a
// zero chunk would divide by zero in the first rendezvous send, and one of
// 64 KiB + 4 would split an element inside a fold.
func TestRendezvousChunkRefused(t *testing.T) {
	for _, chunk := range []int64{0, -8, 64<<10 + 4} {
		cfg := DefaultConfig(2, 1)
		cfg.Protocol.RendezvousChunk = chunk
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "RendezvousChunk") {
					t.Errorf("chunk %d: world construction panicked with %q, want a refusal naming RendezvousChunk", chunk, msg)
				}
			}()
			NewWorldOn(NewFabric(cfg), cfg)
		}()
	}
}

// TestNegativeTimeoutsRefused: a world whose CollTimeout or
// RendezvousTimeout is negative and not AutoTimeout is refused at
// construction, naming the field; such a value used to wait forever, as 0
// does. AutoTimeout builds.
func TestNegativeTimeoutsRefused(t *testing.T) {
	for _, field := range []string{"CollTimeout", "RendezvousTimeout"} {
		for _, d := range []time.Duration{-5 * time.Nanosecond, AutoTimeout} {
			cfg := DefaultConfig(2, 1)
			if field == "CollTimeout" {
				cfg.Protocol.CollTimeout = d
			} else {
				cfg.Protocol.RendezvousTimeout = d
			}
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if refused := strings.Contains(msg, "Protocol."+field); refused != (d != AutoTimeout) {
						t.Errorf("%s %v: world construction panicked with %q, want a refusal naming it for any negative value but AutoTimeout",
							field, d, msg)
					}
				}()
				NewWorldOn(NewFabric(cfg), cfg)
			}()
		}
	}
}

func TestWtimeAdvances(t *testing.T) {
	runPair(t, func(c *Comm) {
		t0 := c.Wtime()
		c.Proc().Sleep(time.Millisecond)
		if d := c.Wtime() - t0; d < 0.0009 || d > 0.0011 {
			t.Errorf("Wtime advanced %g s, want ~0.001", d)
		}
	})
}

func TestDeterministicRuns(t *testing.T) {
	run := func() time.Duration {
		return Run(DefaultConfig(4, 2), func(c *Comm) {
			buf := make([]byte, 64<<10)
			for i := 0; i < 3; i++ {
				must(c.Barrier())
				next := (c.Rank() + 1) % c.Size()
				prev := (c.Rank() + c.Size() - 1) % c.Size()
				in := make([]byte, len(buf))
				must1(c.Sendrecv(buf, len(buf), datatype.Byte, next, i, in, len(in), datatype.Byte, prev, i))
			}
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("identical runs ended at %v and %v", a, b)
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

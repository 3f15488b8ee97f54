// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices called
// out in DESIGN.md. Each benchmark runs the corresponding experiment driver
// and reports the *modeled* (virtual-time) performance as custom metrics;
// the wall-clock ns/op measures the simulator itself.
//
// Run everything:
//
//	go test -bench=. -benchmem
package scimpich_test

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"scimpich/internal/bench"
	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
	"scimpich/internal/pack"
	"scimpich/internal/ring"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// faultSeed seeds the fault plans of BenchmarkFaultedExchange: the same
// seed reproduces the same fault schedule (and hence identical modeled
// metrics) run after run.
var faultSeed = flag.Uint64("fault.seed", 42, "seed for fault-injection benchmark plans")

// BenchmarkFig1RawSCI regenerates Figure 1 (raw PIO/DMA latency and
// bandwidth) and reports the 64 kiB operating point.
func BenchmarkFig1RawSCI(b *testing.B) {
	var r []bench.RawResult
	for i := 0; i < b.N; i++ {
		r = bench.RunRaw([]int64{8, 1024, 64 << 10})
	}
	b.ReportMetric(r[2].PIOWriteBW, "pio-write-MiB/s")
	b.ReportMetric(r[2].PIOReadBW, "pio-read-MiB/s")
	b.ReportMetric(r[2].DMABW, "dma-MiB/s")
	b.ReportMetric(r[0].PIOWriteLatency.Seconds()*1e6, "write-lat-µs")
}

// BenchmarkFig7Noncontig regenerates Figure 7 per block size.
func BenchmarkFig7Noncontig(b *testing.B) {
	for _, bs := range []int64{8, 128, 4096, 64 << 10} {
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			var r []bench.NoncontigResult
			for i := 0; i < b.N; i++ {
				r = bench.RunNoncontig([]int64{bs})
			}
			b.ReportMetric(r[0].InterFF, "sci-ff-MiB/s")
			b.ReportMetric(r[0].InterGeneric, "sci-generic-MiB/s")
			b.ReportMetric(r[0].InterContig, "sci-contig-MiB/s")
			b.ReportMetric(r[0].IntraFF, "shm-ff-MiB/s")
		})
	}
}

// BenchmarkFig9Sparse regenerates Figure 9 per access size.
func BenchmarkFig9Sparse(b *testing.B) {
	for _, a := range []int64{8, 256, 8 << 10} {
		b.Run(fmt.Sprintf("access=%d", a), func(b *testing.B) {
			var r []bench.SparseResult
			for i := 0; i < b.N; i++ {
				r = bench.RunSparse([]int64{a})
			}
			b.ReportMetric(r[0].PutSharedBW, "put-shared-MiB/s")
			b.ReportMetric(r[0].GetSharedBW, "get-shared-MiB/s")
			b.ReportMetric(r[0].PutPrivateLat, "put-private-µs")
			b.ReportMetric(r[0].PutSharedLat, "put-shared-µs")
		})
	}
}

// BenchmarkStridedWrite regenerates the §4.3 low-level strided-write study.
func BenchmarkStridedWrite(b *testing.B) {
	var ext []bench.StridedExtremes
	for i := 0; i < b.N; i++ {
		ext = bench.Extremes(bench.RunStrided([]int64{8, 256}))
	}
	b.ReportMetric(ext[0].MinBW, "8B-min-MiB/s")
	b.ReportMetric(ext[0].MaxBW, "8B-max-MiB/s")
	b.ReportMetric(ext[1].MinBW, "256B-min-MiB/s")
	b.ReportMetric(ext[1].MaxBW, "256B-max-MiB/s")
}

// BenchmarkFig10Platforms regenerates the cross-platform non-contiguous
// comparison and reports the T3E's plateau efficiency.
func BenchmarkFig10Platforms(b *testing.B) {
	sizes := []int64{64, 16 << 10}
	var rows []bench.PlatformNoncontigResult
	for i := 0; i < b.N; i++ {
		rows = bench.RunPlatformNoncontig(sizes)
	}
	for _, r := range rows {
		if r.ID == "C" {
			b.ReportMetric(r.NC[1]/r.C[1], "t3e-16k-efficiency")
		}
		if r.ID == "M-S" {
			b.ReportMetric(r.NC[1], "sci-ff-16k-MiB/s")
		}
	}
}

// BenchmarkFig11Platforms regenerates the cross-platform one-sided
// comparison at 1 kiB accesses.
func BenchmarkFig11Platforms(b *testing.B) {
	var rows []bench.PlatformSparseResult
	for i := 0; i < b.N; i++ {
		rows = bench.RunPlatformSparse([]int64{1024})
	}
	for _, r := range rows {
		switch r.ID {
		case "M-S":
			b.ReportMetric(r.BW[0], "sci-MiB/s")
		case "VIA":
			b.ReportMetric(r.Lat[0], "via-lat-µs")
		case "X-f":
			b.ReportMetric(r.BW[0], "lam-ethernet-MiB/s")
		}
	}
}

// BenchmarkFig12Scaling regenerates the scaling comparison.
func BenchmarkFig12Scaling(b *testing.B) {
	var series []bench.ScalingSeries
	for i := 0; i < b.N; i++ {
		series = bench.RunScaling(64 << 10)
	}
	for _, s := range series {
		if s.ID == "M-S" {
			b.ReportMetric(s.Points[0].BW, "sci-2nodes-MiB/s")
			b.ReportMetric(s.Points[len(s.Points)-1].BW, "sci-8nodes-MiB/s")
		}
	}
}

// BenchmarkTable2Utilization regenerates Table 2 at both link frequencies.
func BenchmarkTable2Utilization(b *testing.B) {
	var rows166, rows200 []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows166 = bench.RunTable2(166)
		rows200 = bench.RunTable2(200)
	}
	last := rows166[len(rows166)-1]
	b.ReportMetric(last.PerNode8, "8nodes-166MHz-MiB/s")
	b.ReportMetric(last.Eff*100, "8nodes-eff-%")
	b.ReportMetric(rows200[len(rows200)-1].PerNode8, "8nodes-200MHz-MiB/s")
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationPackEngines measures the host-CPU cost of the two
// packing engines on the same datatype: the flattened leaf/stack iteration
// versus the recursive tree walk. This is a real (wall-clock) benchmark of
// the algorithms themselves.
func BenchmarkAblationPackEngines(b *testing.B) {
	inner := datatype.StructOf(
		datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
		datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
	)
	ty := datatype.Vector(4096, 2, 3, datatype.Resized(inner, 0, 8)).Commit()
	user := make([]byte, ty.Extent()+64)
	out := make([]byte, ty.Size())
	b.Run("direct_pack_ff", func(b *testing.B) {
		b.SetBytes(ty.Size())
		for i := 0; i < b.N; i++ {
			pack.FFPack(pack.BufferSink{Buf: out}, user, ty, 1, 0, -1)
		}
	})
	b.Run("generic_recursive", func(b *testing.B) {
		b.SetBytes(ty.Size())
		for i := 0; i < b.N; i++ {
			pack.GenericPack(out, user, ty, 1, 0, -1)
		}
	})
}

// BenchmarkAblationRendezvousChunk sweeps the handshake chunk size: beyond
// the L2 size the receive-side unpack thrashes the cache (the paper's §3.3.2
// protocol-parameter guidance).
func BenchmarkAblationRendezvousChunk(b *testing.B) {
	ty := datatype.Vector(8192, 16, 32, datatype.Float64).Commit() // 1 MiB payload
	src := make([]byte, ty.Extent()+64)
	for _, chunk := range []int64{32 << 10, 64 << 10, 256 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("chunk=%dKiB", chunk>>10), func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				cfg := mpi.DefaultConfig(2, 1)
				cfg.Protocol.RendezvousChunk = chunk
				var elapsed time.Duration
				mpi.Run(cfg, func(c *mpi.Comm) {
					switch c.Rank() {
					case 0:
						start := c.WtimeDuration()
						must(c.Send(src, 1, ty, 1, 0))
						must1(c.Recv(nil, 0, datatype.Byte, 1, 1))
						elapsed = c.WtimeDuration() - start
					case 1:
						dst := make([]byte, len(src))
						must1(c.Recv(dst, 1, ty, 0, 0))
						must(c.Send(nil, 0, datatype.Byte, 0, 1))
					}
				})
				bw = float64(ty.Size()) / elapsed.Seconds() / (1 << 20)
			}
			b.ReportMetric(bw, "modeled-MiB/s")
		})
	}
}

// BenchmarkAblationGetThreshold sweeps the direct-read / remote-put
// crossover of MPI_Get (paper §4.2).
func BenchmarkAblationGetThreshold(b *testing.B) {
	const n = 32 << 10
	for _, threshold := range []int64{0, 4 << 10, 1 << 30} {
		name := "remote-put-always"
		if threshold == 1<<30 {
			name = "direct-read-always"
		} else if threshold > 0 {
			name = fmt.Sprintf("threshold=%dKiB", threshold>>10)
		}
		b.Run(name, func(b *testing.B) {
			var lat time.Duration
			for i := 0; i < b.N; i++ {
				mpi.Run(mpi.DefaultConfig(2, 1), func(c *mpi.Comm) {
					s := osc.NewSystem(c)
					cfg := osc.DefaultConfig()
					cfg.GetDirectMax = threshold
					w := s.CreateShared(c.AllocShared(n), cfg)
					must(w.Fence())
					if c.Rank() == 0 {
						dst := make([]byte, n)
						start := c.WtimeDuration()
						must(w.Get(dst, n, datatype.Byte, 1, 0))
						lat = c.WtimeDuration() - start
					}
					must(w.Fence())
				})
			}
			b.ReportMetric(lat.Seconds()*1e6, "modeled-µs")
		})
	}
}

// BenchmarkAblationWriteCombine compares strided remote writes with the CPU
// write-combine buffer enabled and disabled (paper §4.3).
func BenchmarkAblationWriteCombine(b *testing.B) {
	run := func(wc bool, stride int64) float64 {
		e := sim.NewEngine()
		cfg := sci.DefaultConfig(2)
		cfg.WriteCombine = wc
		ic := sci.New(e, cfg)
		const total = 1 << 20
		seg := ic.Node(1).Export(total / 256 * stride * 2)
		var elapsed time.Duration
		e.Go("bench", func(p *sim.Proc) {
			m := ic.Node(0).MustImport(1, seg.ID())
			start := p.Now()
			must(m.WriteStrided(p, 0, make([]byte, total), 256, stride))
			ic.Node(0).StoreBarrier(p)
			elapsed = p.Now() - start
		})
		e.Run()
		return float64(total) / elapsed.Seconds() / (1 << 20)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(true, 512), "wc-aligned-MiB/s")
		b.ReportMetric(run(true, 520), "wc-misaligned-MiB/s")
		b.ReportMetric(run(false, 520), "wc-off-MiB/s")
	}
	_ = ring.DefaultLinkMHz
}

// BenchmarkAblationEagerThreshold sweeps the eager/rendezvous boundary for
// a 32 kiB message: too small a threshold forces handshakes on mid-size
// messages, too large a threshold spends eager-slot copies on bulk data.
func BenchmarkAblationEagerThreshold(b *testing.B) {
	const size = 32 << 10
	src := make([]byte, size)
	run := func(eagerMax int64) float64 {
		cfg := mpi.DefaultConfig(2, 1)
		cfg.Protocol.EagerMax = eagerMax
		var elapsed time.Duration
		mpi.Run(cfg, func(c *mpi.Comm) {
			switch c.Rank() {
			case 0:
				start := c.WtimeDuration()
				for i := 0; i < 8; i++ {
					must(c.Send(src, size, datatype.Byte, 1, i))
				}
				must1(c.Recv(nil, 0, datatype.Byte, 1, 99))
				elapsed = c.WtimeDuration() - start
			case 1:
				dst := make([]byte, size)
				for i := 0; i < 8; i++ {
					must1(c.Recv(dst, size, datatype.Byte, 0, i))
				}
				must(c.Send(nil, 0, datatype.Byte, 0, 99))
			}
		})
		return float64(size*8) / elapsed.Seconds() / (1 << 20)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(4<<10), "eager4k-MiB/s")
		b.ReportMetric(run(16<<10), "eager16k-MiB/s")
		b.ReportMetric(run(64<<10), "eager64k-MiB/s")
	}
}

// BenchmarkOutlookOneVsTwoSided runs the paper's concluding comparison:
// synchronized ping-pong (where one-sided does not win) versus access to a
// busy, non-participating target (where it wins decisively).
func BenchmarkOutlookOneVsTwoSided(b *testing.B) {
	var r bench.OneVsTwoSidedResult
	for i := 0; i < b.N; i++ {
		r = bench.RunOneVsTwoSided()
	}
	b.ReportMetric(r.TwoSidedPingPong.Seconds()*1e6, "2sided-pingpong-µs")
	b.ReportMetric(r.OneSidedPingPong.Seconds()*1e6, "1sided-pingpong-µs")
	b.ReportMetric(r.TwoSidedBusy.Seconds()*1e6, "2sided-busy-µs")
	b.ReportMetric(r.OneSidedBusy.Seconds()*1e6, "1sided-busy-µs")
}

// BenchmarkAblationDMARendezvous compares PIO and DMA engines for large
// contiguous rendezvous chunks (the §6 outlook).
func BenchmarkAblationDMARendezvous(b *testing.B) {
	const size = 1 << 20
	src := make([]byte, size)
	run := func(path mpi.PathPolicy) float64 {
		cfg := mpi.DefaultConfig(2, 1)
		cfg.Protocol.Path = path
		var elapsed time.Duration
		mpi.Run(cfg, func(c *mpi.Comm) {
			switch c.Rank() {
			case 0:
				start := c.WtimeDuration()
				must(c.Send(src, size, datatype.Byte, 1, 0))
				must1(c.Recv(nil, 0, datatype.Byte, 1, 1))
				elapsed = c.WtimeDuration() - start
			case 1:
				dst := make([]byte, size)
				must1(c.Recv(dst, size, datatype.Byte, 0, 0))
				must(c.Send(nil, 0, datatype.Byte, 0, 1))
			}
		})
		return float64(size) / elapsed.Seconds() / (1 << 20)
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(run(mpi.PathAdaptive), "pio-MiB/s")
		b.ReportMetric(run(mpi.PathDMA), "dma-MiB/s")
	}
}

// BenchmarkFaultedExchange measures the robustness machinery under a
// deterministic fault plan (seeded by -fault.seed): injected CRC/sequence
// errors, duplicated control packets and transfer-check failures on a busy
// exchange. It reports the modeled slowdown against the clean run plus the
// recovery counters (retries, dropped duplicates, check retries).
func BenchmarkFaultedExchange(b *testing.B) {
	const size = 64 << 10
	src := make([]byte, size)
	run := func(plan *fault.Plan) (time.Duration, *mpi.World) {
		cfg := mpi.DefaultConfig(4, 1)
		cfg.SCI.Fault = plan
		var w *mpi.World
		d := mpi.Run(cfg, func(c *mpi.Comm) {
			if c.Rank() == 0 {
				w = c.World()
			}
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			in := make([]byte, size)
			for r := 0; r < 8; r++ {
				must1(c.Sendrecv(src, size, datatype.Byte, next, r, in, size, datatype.Byte, prev, r))
			}
		})
		return d, w
	}
	var clean, faulted time.Duration
	var w *mpi.World
	for i := 0; i < b.N; i++ {
		clean, _ = run(nil)
		faulted, w = run(fault.New(*faultSeed).
			WithWriteErrors(0.1).WithCheckErrors(0.05).WithDuplicates(0.1))
	}
	var retries, duplicates, checkRetries int64
	for r := 0; r < w.Size(); r++ {
		duplicates += w.Stats(r).Duplicates
		retries += w.Stats(r).SendRetries
	}
	for n := 0; n < 4; n++ {
		checkRetries += w.InterconnectStats(n).CheckRetries
	}
	b.ReportMetric(faulted.Seconds()/clean.Seconds(), "slowdown-x")
	b.ReportMetric(float64(retries), "send-retries")
	b.ReportMetric(float64(duplicates), "dropped-duplicates")
	b.ReportMetric(float64(checkRetries), "check-retries")
}

// BenchmarkFaultedOneSided measures graceful degradation: a window view
// revoked mid-run forces the one-sided layer off its direct path onto the
// emulation path, and the metric is the cost ratio between the two.
func BenchmarkFaultedOneSided(b *testing.B) {
	const n = 32 << 10
	var direct, degraded time.Duration
	var degradations int64
	for i := 0; i < b.N; i++ {
		run := func(plan *fault.Plan) (time.Duration, int64) {
			cfg := mpi.DefaultConfig(2, 1)
			cfg.SCI.Fault = plan
			var lat time.Duration
			var degr int64
			mpi.Run(cfg, func(c *mpi.Comm) {
				s := osc.NewSystem(c)
				w := s.CreateShared(c.AllocShared(n), osc.DefaultConfig())
				must(w.Fence())
				c.Proc().Sleep(2 * time.Millisecond)
				if c.Rank() == 0 {
					buf := make([]byte, n)
					start := c.WtimeDuration()
					must(w.Put(buf, n, datatype.Byte, 1, 0))
					lat = c.WtimeDuration() - start
					degr = w.Snapshot().Degradations
				}
				must(w.Fence())
			})
			return lat, degr
		}
		direct, _ = run(nil)
		degraded, degradations = run(fault.New(*faultSeed).RevokeSegment(1, 1, time.Millisecond))
	}
	b.ReportMetric(degraded.Seconds()/direct.Seconds(), "degraded-cost-x")
	b.ReportMetric(float64(degradations), "degradations")
}

// BenchmarkSimulatorThroughput measures raw simulator speed: events per
// wall-clock second for a busy 8x2 cluster exchange.
func BenchmarkSimulatorThroughput(b *testing.B) {
	buf := make([]byte, 64<<10)
	for i := 0; i < b.N; i++ {
		mpi.Run(mpi.DefaultConfig(8, 2), func(c *mpi.Comm) {
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			in := make([]byte, len(buf))
			for r := 0; r < 4; r++ {
				must1(c.Sendrecv(buf, len(buf), datatype.Byte, next, r, in, len(in), datatype.Byte, prev, r))
			}
		})
	}
}

package main

import (
	"runtime"
	"strconv"
	"time"

	"scimpich"
	"scimpich/internal/bufpool"
	"scimpich/internal/datatype"
	"scimpich/internal/flow"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/pack"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// The layer replays: after the traced repetition, the benchmark calls each
// layer's public functions directly, with the sizes the workloads use, and
// times them. A replay gives the unit cost of one piece of work of a layer;
// multiplied by the count the registry reports it estimates the layer's
// share of a workload's wall time. This is the only file (with tracer.go)
// that imports internal packages other than rmem and fault.

// replayBudget is how long one measurement of a replay lasts. Thirty-odd
// replays, three measurements each, have to fit in a few seconds.
var replayBudget = 20 * time.Millisecond

// perCall runs fn with a growing iteration count until one call lasts at
// least the budget, and returns the wall nanoseconds per iteration: the
// fastest of three calls at that count, which a collection or a descheduled
// moment on a small machine inflates but never deflates.
func perCall(fn func(n int)) float64 {
	timeOf := func(n int) time.Duration {
		t0 := time.Now()
		fn(n)
		return time.Since(t0)
	}
	n := 1
	best := timeOf(n)
	for best < replayBudget && n < 1<<26 {
		n *= 4
		best = timeOf(n)
	}
	for i := 0; i < 2; i++ {
		best = min(best, timeOf(n))
	}
	return float64(best.Nanoseconds()) / float64(n)
}

func replaySim(m map[string]float64) {
	// One AfterCall schedule + dispatch: a chain of n events.
	m["sim.event_ns"] = perCall(func(n int) {
		f := sim.NewLocalFabric(1, time.Microsecond)
		h := f.Locale(0)
		left := n
		var step func(any)
		step = func(any) {
			if left--; left > 0 {
				h.AfterCall(time.Nanosecond, step, nil)
			}
		}
		h.AfterCall(time.Nanosecond, step, nil)
		f.Run()
	})
	// Two procs alternating on a bare fabric; two switches per round.
	m["sim.proc_switch_ns"] = perCall(func(n int) {
		f := sim.NewLocalFabric(1, time.Microsecond)
		h := f.Locale(0)
		ping, pong := sim.NewChan(1), sim.NewChan(1)
		h.Go("a", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Send(ping, nil)
				p.Recv(pong)
			}
		})
		h.Go("b", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Recv(ping)
				p.Send(pong, nil)
			}
		})
		f.Run()
	}) / 2
	// The same 4x4x4 torus allreduce on the sequential engine and on two
	// shards: the sharded figure over the sequential one is the speed-up,
	// to be read against ncpu in the result envelope.
	for _, v := range []struct {
		key    string
		shards int
		fabric func(scimpich.TorusConfig) scimpich.Fabric
	}{{"sim.seq_events_per_s_t64", 1, scimpich.NewTorusOracle}, {"sim.sharded2_events_per_s_t64", 2, scimpich.NewTorusFabric}} {
		t0 := time.Now()
		res, err := torusRun(4, v.shards, v.fabric, nil)
		if err != nil {
			continue
		}
		m[v.key] = float64(res.Events) / time.Since(t0).Seconds()
		if v.shards == 2 {
			m["sim.sharded2_windows_t64"] = float64(res.Windows)
		}
	}
}

// replayFlow times one Start + completion of a short flow while a
// population of long flows is active: 216 disjoint flows (the torus
// workload, every flow its own component) and 8 flows sharing the segments
// of an 8-link ring (the allreduce8 workload).
func replayFlow(m map[string]float64) {
	const bw = 100e6
	measure := func(population func() (long [][]flow.Hop, short []flow.Hop)) float64 {
		return perCall(func(n int) {
			f := sim.NewLocalFabric(1, time.Microsecond)
			h := f.Locale(0)
			net := flow.NewNetworkOn(h)
			long, short := population()
			h.Go("replay", func(p *sim.Proc) {
				net.StartBatch(long, 1<<50, bw)
				for i := 0; i < n; i++ {
					net.Transfer(p, short, 4096, bw)
				}
				f.Stop() // the long flows would run for simulated months
			})
			f.Run()
		})
	}
	m["flow.start_finish_ns_n216"] = measure(func() ([][]flow.Hop, []flow.Hop) {
		long := make([][]flow.Hop, 216)
		for i := range long {
			long[i] = flow.Path(flow.NewLink("l", bw, nil))
		}
		return long, flow.Path(flow.NewLink("s", bw, nil))
	})
	m["flow.start_finish_ns_n8"] = measure(func() ([][]flow.Hop, []flow.Hop) {
		ring := make([]*flow.Link, 8)
		for i := range ring {
			ring[i] = flow.NewLink("seg", bw, flow.SCIRingCongestion{})
		}
		long := make([][]flow.Hop, 8)
		for i := range long {
			long[i] = flow.Path(ring[i], ring[(i+1)%8], ring[(i+2)%8])
		}
		return long, flow.Path(ring[0], ring[1])
	})
}

func replayPack(m map[string]float64) {
	const kib = noncontigTotal / 1024
	lin := make([]byte, noncontigTotal)
	sink := pack.Sink(pack.BufferSink{Buf: lin})
	for _, bs := range noncontigBlocks {
		ty := vectorType(bs)
		user := make([]byte, ty.Extent())
		key := func(engine string) string { return "pack." + engine + "_ns_per_kib_b" + strconv.FormatInt(bs, 10) }
		m[key("ff")] = perCall(func(n int) {
			for i := 0; i < n; i++ {
				pack.FFPack(sink, user, ty, 1, 0, -1)
			}
		}) / kib
		if bs == 8 || bs == 1024 {
			m[key("generic")] = perCall(func(n int) {
				for i := 0; i < n; i++ {
					pack.GenericPack(lin, user, ty, 1, 0, -1)
				}
			}) / kib
		}
		if bs == 8 {
			// The rendezvous pipeline: one cursor resumed per 64 KiB chunk.
			chunk := scimpich.DefaultProtocol().RendezvousChunk
			cur := pack.NewCursor(ty, 1)
			m["pack.cursor_chunk_ns_per_kib_b8"] = perCall(func(n int) {
				for i := 0; i < n; i++ {
					cur.Reset()
					for !cur.Done() {
						cur.Pack(sink, user, chunk)
					}
				}
			}) / kib
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			const calls = 64
			for i := 0; i < calls; i++ {
				pack.FFPack(sink, user, ty, 1, 0, -1)
			}
			runtime.ReadMemStats(&ms1)
			m["pack.allocs_per_call"] = float64(ms1.Mallocs-ms0.Mallocs) / calls
		}
	}
}

func replayDatatype(m map[string]float64) {
	m["datatype.commit_ns_vector"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			datatype.Vector(noncontigTotal/8, 1, 2, datatype.Float64).Commit()
		}
	})
	blocklens, displs := make([]int, 1024), make([]int, 1024)
	for i := range blocklens {
		blocklens[i], displs[i] = 32, i*48
	}
	m["datatype.commit_ns_indexed1k"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			datatype.Indexed(blocklens, displs, datatype.Byte).Commit()
		}
	})
}

// replaySCI times single PIO operations on a bare 2-node interconnect; the
// writer sleeps past the wire latency so the delivery lands inside the
// measured operation.
func replaySCI(m map[string]float64) {
	remote := func(issue func(mp *sci.Mapping, p *sim.Proc)) float64 {
		return perCall(func(n int) {
			f := sim.NewLocalFabric(1, time.Microsecond)
			ic := sci.New(f.Locale(0), sci.DefaultConfig(2))
			seg := ic.Node(1).Export(1 << 20)
			f.Locale(0).Go("replay", func(p *sim.Proc) {
				mp := ic.Node(0).MustImport(1, seg.ID())
				drain := ic.Cfg.PIOWriteLatency + time.Microsecond
				for i := 0; i < n; i++ {
					issue(mp, p)
					p.Sleep(drain)
				}
			})
			f.Run()
		})
	}
	kib := make([]byte, 1024)
	m["sci.write_stream_ns_per_kib"] = remote(func(mp *sci.Mapping, p *sim.Proc) { mp.WriteStream(p, 0, kib, 0) })
	m["sci.write_word_ns"] = remote(func(mp *sci.Mapping, p *sim.Proc) { mp.WriteWord(p, 0, kib[:8]) })
	m["sci.write_put_ns_a8"] = remote(func(mp *sci.Mapping, p *sim.Proc) { mp.WritePut(p, 0, kib[:8], 8, 16) })
	m["sci.read_strided_ns_a8"] = remote(func(mp *sci.Mapping, p *sim.Proc) { mp.ReadStrided(p, 0, kib[:8], 8, 16) })
}

// replayFacade times the facade-level fixtures that are not workloads of
// their own: the intra-node ping-pong and world construction.
func replayFacade(m map[string]float64) {
	var virt time.Duration
	m["shmem.rtt_wall_ns"] = perCall(func(n int) {
		buf := make([]byte, 64)
		scimpich.Run(scimpich.DefaultConfig(1, 2), func(c *scimpich.Comm) {
			in := make([]byte, 64)
			start := c.WtimeDuration()
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(buf, 64, scimpich.Byte, 1, 0)
					c.Recv(in, 64, scimpich.Byte, 1, 0)
				} else {
					c.Recv(in, 64, scimpich.Byte, 0, 0)
					c.Send(in, 64, scimpich.Byte, 0, 0)
				}
			}
			if c.Rank() == 0 {
				virt = (c.WtimeDuration() - start) / time.Duration(2*n)
			}
		})
	})
	m["shmem.virt_latency_us"] = float64(virt) / 1e3

	build := func(nodes, procs int) float64 {
		cfg := scimpich.DefaultConfig(nodes, procs)
		return perCall(func(n int) {
			for i := 0; i < n; i++ {
				scimpich.NewWorldOn(scimpich.NewFabric(cfg), cfg)
			}
		})
	}
	m["mpi.world_build_ns_r2"] = build(2, 1)
	m["mpi.world_build_ns_r16"] = build(8, 2)

	cfg := scimpich.DefaultConfig(8, 2)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	g0 := runtime.NumGoroutine()
	runtime.ReadMemStats(&ms0)
	worlds := 0
	m["mpi.world_run_empty_ns_r16"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			scimpich.Run(cfg, func(*scimpich.Comm) {})
		}
		worlds += n
	})
	runtime.ReadMemStats(&ms1)
	m["mpi.world_alloc_mb_r16"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(worlds) / (1 << 20)
	m["mpi.world_goroutines_left_r16"] = float64(runtime.NumGoroutine()-g0) / float64(worlds)
}

func replaySmall(m map[string]float64) {
	m["bufpool.get_put_ns"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			bufpool.Get(64).Put()
		}
	})
	ctr := obs.NewRegistry().Counter("replay")
	m["obs.counter_ns"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	ring := flight.New(0).Actor("replay")
	m["obs.flight_record_ns"] = perCall(func(n int) {
		for i := 0; i < n; i++ {
			ring.Record(time.Duration(i), flight.KRankNode, 1, 2, 3, 4)
		}
	})
}

// layerReplays runs every replay and returns the unit costs by metric name.
func layerReplays() map[string]float64 {
	m := map[string]float64{}
	for _, replay := range []func(map[string]float64){
		replaySim, replayFlow, replayPack, replayDatatype, replaySCI, replayFacade, replaySmall,
	} {
		replay(m)
		runtime.GC() // the facade replays leave whole worlds behind
	}
	return m
}

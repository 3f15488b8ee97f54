package main

import (
	"strings"

	"scimpich/internal/bufpool"
	"scimpich/internal/obs"
)

// registry returns the traced repetition's registry for configurations that
// take one directly (TorusConfig.Registry); nil when untraced.
func (t *tracer) registry() *obs.Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// sumWhere adds up the registry values whose name has the prefix and
// contains the label.
func sumWhere(reg map[string]int64, prefix, label string) (sum int64) {
	for name, v := range reg {
		if strings.HasPrefix(name, prefix) && strings.Contains(name, label) {
			sum += v
		}
	}
	return sum
}

// layerMetrics turns the traced repetition's registry, spans, profile and
// the replay unit costs into the per-layer metrics. Counts and span times
// cover every operation of the measured worlds, warm-up included, and are
// divided by that many operations; shares are relative to the timed wall
// time and scaled to the timed operations.
func (t *tracer) layerMetrics(e *env, unit map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for k, v := range unit {
		m[k] = v
	}
	reg := registryTotals(t.reg)
	ops := float64(e.allOps)
	perOp := func(v int64) float64 { return float64(v) / ops }

	starts := reg["flow.transfer.ns"]
	m["flow.starts_per_op"] = perOp(starts)
	m["flow.active_max"] = float64(reg["flow.active.max"])
	m["pack.ff_bytes_per_op"] = perOp(reg["mpi.pack.bytes{engine=direct_pack_ff}"])
	m["pack.generic_bytes_per_op"] = perOp(reg["mpi.pack.bytes{engine=generic}"])
	m["sci.pio_bytes_per_op"] = perOp(reg["sci.bytes.written"])
	m["sci.read_bytes_per_op"] = perOp(reg["sci.bytes.read"])
	streams, puts, reads := reg["sci.pio.write_stream.ns"]+reg["sci.blockwrite.flush.ns"], reg["sci.pio.put.ns"], reg["sci.pio.read.ns"]
	m["sci.pio_ops_per_op"] = perOp(streams + puts + reads)
	m["sci.dma_transfers_per_op"] = perOp(reg["sci.dma.ns"] + reg["sci.dma.sg.transfers"])
	m["sci.retries"] = float64(reg["sci.retries"])
	pool := bufpool.Snapshot()
	m["bufpool.gets_per_op"] = perOp(pool.Gets - t.pool0.Gets)
	m["bufpool.misses_per_op"] = perOp(pool.Misses - t.pool0.Misses)
	for _, p := range []string{"short", "eager", "rdv"} {
		m["mpi."+p+"_per_op"] = perOp(reg["mpi.sends{path="+p+"}"])
	}
	path := func(labels ...string) (sum int64) {
		for _, l := range labels {
			sum += reg["mpi.path.chosen{path="+l+"}"]
		}
		return sum
	}
	m["mpi.path_pio_per_op"] = perOp(path("pio-ff", "pio-stream"))
	m["mpi.path_staged_per_op"] = perOp(path("staged"))
	m["mpi.path_dma_per_op"] = perOp(path("dma-sg", "dma"))
	m["mpi.path_generic_per_op"] = perOp(path("generic"))
	for _, a := range []string{"p2p", "recdbl", "ring", "onesided"} {
		m["mpi.coll_"+a+"_per_op"] = perOp(sumWhere(reg, "mpi.coll.alg.chosen{", "alg="+a+"}"))
	}
	m["osc.direct_puts_per_op"] = perOp(reg["osc.puts{path=direct}"])
	m["osc.emulated_puts_per_op"] = perOp(reg["osc.puts{path=emulated}"])
	m["osc.direct_gets_per_op"] = perOp(reg["osc.gets{path=direct}"])
	m["osc.remote_put_gets_per_op"] = perOp(reg["osc.gets{path=remote-put}"])
	m["fault.injected"] = float64(sumWhere(reg, "fault.injected{", ""))

	// Estimated shares: work counted above x unit cost of the replay, over
	// the timed wall time. The unit costs are those of the replayed sizes
	// (1 KiB streams, 8 B accesses), so a layer that moves larger pieces
	// per call is under-estimated; what no estimate explains is the
	// residual.
	timedShare := func(ns float64) float64 {
		return ns / ops * float64(e.res.Ops) / float64(e.res.WallNS)
	}
	flowUnit := unit["flow.start_finish_ns_n8"]
	if m["flow.active_max"] >= 64 {
		flowUnit = unit["flow.start_finish_ns_n216"]
	}
	m["flow.est_share"] = timedShare(float64(starts) * flowUnit)
	ffKiB := (unit["pack.ff_ns_per_kib_b8"] + unit["pack.ff_ns_per_kib_b16"] + unit["pack.ff_ns_per_kib_b128"] + unit["pack.ff_ns_per_kib_b1024"]) / 4
	genKiB := (unit["pack.generic_ns_per_kib_b8"] + unit["pack.generic_ns_per_kib_b1024"]) / 2
	m["pack.est_share"] = timedShare(float64(reg["mpi.pack.bytes{engine=direct_pack_ff}"])/1024*ffKiB +
		float64(reg["mpi.pack.bytes{engine=generic}"])/1024*genKiB)
	m["sci.est_share"] = timedShare(float64(streams)*unit["sci.write_stream_ns_per_kib"] +
		float64(puts)*unit["sci.write_put_ns_a8"] + float64(reads)*unit["sci.read_strided_ns_a8"])
	if e.res.Events > 0 {
		// Only where the engine is in reach (not inside rmem.RunWorkload).
		m["sim.events_per_op"] = float64(e.res.Events) / float64(e.res.Ops)
		m["sim.events_per_s"] = float64(e.res.Events) / (float64(e.res.WallNS) / 1e9)
		m["sim.est_share"] = float64(e.res.Events) * unit["sim.event_ns"] / float64(e.res.WallNS)
		m["residual_share"] = 1 - m["sim.est_share"] - m["flow.est_share"] - m["pack.est_share"] - m["sci.est_share"]
	}

	// Span times, per operation, and per span kind for the kinds that occurred.
	wall := func(kinds ...spanKind) (ns int64) {
		for _, k := range kinds {
			ns += t.agg[k].wall
		}
		return ns
	}
	m["span.build_wall_ns_per_op"] = perOp(wall(spBuild))
	m["span.run_wall_ns_per_op"] = perOp(wall(spRun, spRmemBase, spRmemChurn))
	m["mpi.send_wall_ns_per_op"] = perOp(wall(spSend))
	m["mpi.recv_wall_ns_per_op"] = perOp(wall(spRecv))
	m["mpi.coll_wall_ns_per_op"] = perOp(wall(spBarrier, spAllreduce4k, spAllreduce2m))
	m["osc.access_wall_ns_per_op"] = perOp(wall(spPutShared, spPutPrivate, spGetShared, spGetPrivate, spAccShared))
	m["osc.fence_wall_ns_per_op"] = perOp(wall(spFence))
	for k := range t.agg {
		a := &t.agg[k]
		if a.n == 0 {
			continue
		}
		name := "span." + spanNames[k]
		m[name+".count"] = float64(a.n)
		m[name+".wall_ns_mean"] = float64(a.wall) / float64(a.n)
		m[name+".wall_ns_p50"] = float64(a.hist.Quantile(0.5))
		m[name+".wall_ns_p99"] = float64(a.hist.Quantile(0.99))
		if k != int(spBuild) {
			m[name+".virt_us_mean"] = float64(a.virt) / float64(a.n) / 1e3
		}
	}

	// Virtual time by span category of the simulator's own trace.
	var total float64
	byCat := map[string]float64{}
	for _, s := range t.otr.Summarize() {
		byCat[s.Category] = float64(s.Total)
		total += float64(s.Total)
	}
	for _, c := range []string{"send", "recv", "pack", "transfer", "osc", "coll"} {
		share := 0.0
		if total > 0 {
			share = byCat[c] / total
		}
		m["obs.virt_span_share_"+c] = share
	}

	// Host.
	m["runtime.peak_rss_mb"] = float64(e.peakRSSKiB) / 1024
	m["runtime.gc_cycles"] = float64(e.gcCycles)
	m["runtime.gc_pause_total_ms"] = float64(e.gcPauseNS) / 1e6
	m["runtime.cpu_s_per_wall_s"] = float64(e.res.CPUNS) / float64(e.res.WallNS)
	if shares, err := profShares(t.prof.Bytes()); err == nil {
		for k, v := range shares {
			m[k] = v
		}
	}
	return m
}

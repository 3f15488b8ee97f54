package main

import (
	"fmt"

	"scimpich"
)

// torusRun builds a dx*dy*dz torus machine on the given fabric constructor
// and runs its chunked ring allreduce.
func torusRun(d, shards int, fabric func(scimpich.TorusConfig) scimpich.Fabric, tr *tracer) (scimpich.TorusResult, error) {
	cfg := scimpich.DefaultTorusConfig(d, d, d, shards)
	cfg.Registry = tr.registry()
	return scimpich.NewTorusWorldOn(fabric(cfg), cfg).Run()
}

// runTorus216Ring: the 6x6x6 torus chunked ring allreduce on the
// sequential engine. One operation is one whole run, construction
// included; TorusWorld.Run verifies every node's reduced vector itself and
// the checksum is compared with the first run's.
func runTorus216Ring(e *env) {
	// The smoke test's scale runs a 64-node machine instead: one run is
	// the smallest timed phase, and a 216-node run takes most of a second.
	d := 6
	if e.scale < 0.1 {
		d = 4
	}
	runs := e.n(2)

	// Warm-up: 5 % of the timed work is less than one 216-node run, so a
	// 4x4x4 machine runs the same code instead.
	if _, err := torusRun(4, 1, scimpich.NewTorusOracle, nil); err != nil {
		panic(err)
	}

	samples := make([]int64, 0, runs)
	var first scimpich.TorusResult
	e.begin()
	for i := 0; i < runs; i++ {
		s := e.tr.host(spRun, int64(i))
		res, err := torusRun(d, 1, scimpich.NewTorusOracle, e.tr)
		e.tr.doneHost(s, res.End)
		if i == 0 {
			first = res
		}
		sum := res.Checksum
		if e.corrupt {
			sum ^= 1
		}
		if err != nil || sum != first.Checksum || res.End != first.End {
			e.res.Failed++
		}
		e.res.Events += res.Events
		samples = append(samples, int64(res.End))
	}
	e.end(int64(runs))

	// Every node sends and receives 2*(n-1) chunks.
	n := int64(d * d * d)
	moved := int64(runs) * n * 2 * (n - 1) * scimpich.DefaultTorusConfig(d, d, d, 1).ChunkBytes
	var virt int64
	for _, s := range samples {
		virt += s
	}
	e.setVirt(float64(virt)/float64(runs), samples, moved, virt)
	e.res.Rows["torus_events_per_run"] = float64(first.Events)

	e.finish() // before the claim phase, in every repetition, so that all measure the same heap
	if !e.claims {
		return
	}
	sharded, err := torusRun(d, 2, scimpich.NewTorusFabric, nil)
	e.claim("2-shard run equals the oracle's virtual end and checksum",
		err == nil && sharded.End == first.End && sharded.Checksum == first.Checksum,
		fmt.Sprintf("end %v vs %v, checksum %#x vs %#x, err %v", sharded.End, first.End, sharded.Checksum, first.Checksum, err))
}

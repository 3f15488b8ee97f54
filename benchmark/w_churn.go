package main

import (
	"fmt"

	"scimpich"
)

// runWorldChurn: build an 8x2 world, exchange four 64 B messages with the
// XOR partner, Barrier, discard the world; repeat. One operation is one
// world, construction included: this is where the cost of building a world
// and whatever a finished world leaves behind show up.
func runWorldChurn(e *env) {
	const (
		size     = 64
		messages = 4
		ranks    = 16
	)
	timed := e.n(400)
	var payload [ranks][messages][size]byte
	rng := newStream(e.seed, 5)
	for r := range payload {
		for m := range payload[r] {
			rng.fill(payload[r][m][:])
		}
	}
	samples := make([]int64, 0, timed)

	one := func(i int, measured bool) (failed bool) {
		tr0 := e.tracerFor(measured)
		op := tr0.host(spRun, int64(i))
		f, w := e.buildWorld(scimpich.DefaultConfig(8, 2), measured)
		end := w.Run(func(c *scimpich.Comm) {
			tr := tr0.rank0(c)
			me, peer := c.Rank(), c.Rank()^1
			var in [size]byte
			for m := 0; m < messages; m++ {
				if me < peer {
					s := tr.call(c, spSend)
					c.Send(payload[me][m][:], size, scimpich.Byte, peer, m)
					tr.done(s, c)
					s = tr.call(c, spRecv)
					c.Recv(in[:], size, scimpich.Byte, peer, m)
					tr.done(s, c)
				} else {
					c.Recv(in[:], size, scimpich.Byte, peer, m)
					c.Send(payload[me][m][:], size, scimpich.Byte, peer, m)
				}
				if !e.same(in[:], payload[peer][m][:]) {
					failed = true
				}
			}
			s := tr.call(c, spBarrier)
			c.Barrier()
			tr.done(s, c)
		})
		tr0.doneHost(op, end)
		if measured {
			e.res.Events += f.Events()
			samples = append(samples, int64(end))
		}
		return failed
	}

	for i := 0; i < warm(timed); i++ {
		one(i, false)
	}
	e.begin()
	for i := 0; i < timed; i++ {
		if one(i, true) {
			e.res.Failed++
		}
	}
	e.end(int64(timed))

	var virt int64
	same := true
	for _, s := range samples {
		virt += s
		same = same && s == samples[0]
	}
	e.setVirt(float64(virt)/float64(timed), samples, int64(timed)*ranks*messages*size, virt)
	e.claim("identical virtual end for all worlds", same,
		fmt.Sprintf("%d worlds, first ends at %d ns", len(samples), samples[0]))
}

package main

import (
	"scimpich"
)

// pingpongRoundTrips is the full-size count of timed round trips.
const pingpongRoundTrips = 150000

// runPingpongShort: 2 nodes x 1 rank, 64 B Send/Recv inter-node, all round
// trips in one world. One operation is one round trip; the reference of
// every operation is the payload that was sent.
func runPingpongShort(e *env) {
	const size = 64
	timed := e.n(pingpongRoundTrips)
	warmup := warm(timed)

	// A pool of distinct payloads, so an echo of the previous message fails.
	var pool [16][size]byte
	rng := newStream(e.seed, 1)
	for i := range pool {
		rng.fill(pool[i][:])
	}
	samples := make([]int64, 0, timed)

	f, w := e.buildWorld(scimpich.DefaultConfig(2, 1), true)

	var events0 uint64
	var failed, virtNS int64
	w.Run(func(c *scimpich.Comm) {
		tr := e.tr.rank0(c)
		buf := make([]byte, size)
		round := func(i int) bool {
			if c.Rank() == 1 {
				c.Recv(buf, size, scimpich.Byte, 0, 0)
				c.Send(buf, size, scimpich.Byte, 0, 0)
				return true
			}
			want := pool[i%len(pool)][:]
			op := tr.op(c, int64(i))
			s := tr.call(c, spSend)
			c.Send(want, size, scimpich.Byte, 1, 0)
			tr.done(s, c)
			s = tr.call(c, spRecv)
			c.Recv(buf, size, scimpich.Byte, 1, 0)
			tr.done(s, c)
			tr.done(op, c)
			return e.same(buf, want)
		}
		for i := 0; i < warmup; i++ {
			round(i)
		}
		c.Barrier()
		if c.Rank() == 0 {
			events0 = f.Events()
			e.begin()
		}
		start := c.WtimeDuration()
		for i := 0; i < timed; i++ {
			t0 := c.WtimeDuration()
			ok := round(i)
			if c.Rank() == 0 {
				samples = append(samples, int64(c.WtimeDuration()-t0))
				if !ok {
					failed++
				}
			}
		}
		if c.Rank() == 0 {
			e.end(int64(timed))
			e.res.Events = f.Events() - events0
			virtNS = int64(c.WtimeDuration() - start)
		}
	})
	e.allOps += int64(warmup)
	e.res.Failed = failed
	// Latency is the half round trip; bandwidth the payload over it.
	e.setVirt(float64(virtNS)/float64(2*timed), halve(samples), int64(2*timed)*size, virtNS)
}

func halve(xs []int64) []int64 {
	for i := range xs {
		xs[i] /= 2
	}
	return xs
}

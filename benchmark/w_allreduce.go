package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"scimpich"
)

const allreduceRanks = 8

// arSize is one half of the workload: a vector length and its call count.
type arSize struct {
	row   string
	kind  spanKind
	bytes int
	calls int // full-size count, scaled at run time
	in    [allreduceRanks][2][]byte
	sum   [2][]byte
	virt  int64  // virtual ns of the timed calls, as seen by rank 0
	bad   []bool // timed calls on which some rank got a wrong sum
}

func newARSize(e *env, row string, kind spanKind, bytes, calls int, stream uint64) *arSize {
	s := &arSize{row: row, kind: kind, bytes: bytes, calls: e.n(calls)}
	s.bad = make([]bool, s.calls)
	rng := newStream(e.seed, stream)
	for k := 0; k < 2; k++ {
		s.sum[k] = make([]byte, bytes)
		for r := range s.in {
			s.in[r][k] = make([]byte, bytes)
			rng.fill(s.in[r][k])
			for o := 0; o < bytes; o += 8 {
				v := binary.LittleEndian.Uint64(s.sum[k][o:]) + binary.LittleEndian.Uint64(s.in[r][k][o:])
				binary.LittleEndian.PutUint64(s.sum[k][o:], v)
			}
		}
	}
	return s
}

// runAllreduce8: 8 nodes x 1 rank, Allreduce of int64 sums with the
// adaptive chooser, a latency-bound 4 KiB half and a bandwidth-bound 2 MiB
// half. One operation is one Allreduce call (of all eight ranks); the
// reference is the sum computed on the host.
func runAllreduce8(e *env) {
	// The smoke test's scale shrinks the large vector too (the rows keep
	// their names): a 2 MiB call costs tens of milliseconds of wall time and
	// the claim phase makes twenty of them.
	large := 2 << 20
	if e.scale < 0.1 {
		large = 128 << 10
	}
	sizes := []*arSize{
		newARSize(e, "4k", spAllreduce4k, 4<<10, 440, 3),
		newARSize(e, "2m", spAllreduce2m, large, 22, 4),
	}
	var samples []int64 // 4 KiB calls only

	f, w := e.buildWorld(scimpich.DefaultConfig(allreduceRanks, 1), true)

	w.Run(func(c *scimpich.Comm) {
		tr := e.tr.rank0(c)
		me := c.Rank()
		out := make([]byte, sizes[1].bytes)
		for _, s := range sizes {
			call := func(i int) bool {
				o := out[:s.bytes]
				sp := tr.call(c, s.kind)
				c.Allreduce(s.in[me][i%2], o, s.bytes/8, scimpich.Int64, scimpich.OpSum)
				tr.done(sp, c)
				return e.same(o, s.sum[i%2])
			}
			for i := 0; i < warm(s.calls); i++ {
				call(i)
			}
			c.Barrier()
			var ev0 uint64
			if me == 0 {
				e.allOps += int64(warm(s.calls))
				ev0 = f.Events()
				e.begin()
			}
			start := c.WtimeDuration()
			for i := 0; i < s.calls; i++ {
				t0 := c.WtimeDuration()
				if !call(i) {
					s.bad[i] = true
				}
				if me == 0 && s.row == "4k" {
					samples = append(samples, int64(c.WtimeDuration()-t0))
				}
			}
			c.Barrier()
			if me == 0 {
				e.end(int64(s.calls))
				e.res.Events += f.Events() - ev0
				s.virt = int64(c.WtimeDuration() - start)
			}
		}
	})
	for _, s := range sizes {
		for _, b := range s.bad {
			if b {
				e.res.Failed++
			}
		}
	}

	small, big := sizes[0], sizes[1]
	per := func(s *arSize) float64 { return float64(s.virt) / float64(s.calls) }
	e.setVirt(per(small), samples, int64(big.calls)*int64(big.bytes), big.virt)
	e.res.Rows["virt_us_allreduce_4k"] = per(small) / 1e3
	e.res.Rows["virt_mibs_allreduce_2m"] = mibs(int64(big.calls)*int64(big.bytes), big.virt)
	e.finish() // before the claim phase, in every repetition, so that all measure the same heap
	if !e.claims {
		return
	}

	// twoCalls runs two back-to-back calls of op on a fresh unmeasured world
	// and returns the virtual time of one.
	twoCalls := func(alg scimpich.CollAlg, s *arSize, op func(c *scimpich.Comm, in, out []byte)) float64 {
		fcfg := scimpich.DefaultConfig(allreduceRanks, 1)
		fcfg.Protocol.Coll = alg
		var d time.Duration
		scimpich.Run(fcfg, func(c *scimpich.Comm) {
			o := make([]byte, s.bytes)
			c.Barrier()
			start := c.WtimeDuration()
			for i := 0; i < 2; i++ {
				op(c, s.in[c.Rank()][i%2], o)
			}
			c.Barrier()
			if c.Rank() == 0 {
				d = c.WtimeDuration() - start
			}
		})
		return float64(d) / 2
	}

	// Forced algorithms, two calls each on a fresh unmeasured world. The
	// one-sided ring is skipped where the scattered block does not fit half
	// a collective window slot, as the collective engine itself would.
	forced := map[string]map[string]float64{}
	algs := []struct {
		name string
		alg  scimpich.CollAlg
	}{{"p2p", scimpich.CollP2P}, {"recdbl", scimpich.CollRecDbl}, {"ring", scimpich.CollRing}, {"onesided", scimpich.CollOneSided}}
	for _, a := range algs {
		for _, s := range sizes {
			if a.alg == scimpich.CollOneSided && int64(s.bytes/allreduceRanks) > scimpich.DefaultProtocol().CollSlot/2 {
				continue
			}
			if forced[s.row] == nil {
				forced[s.row] = map[string]float64{}
			}
			v := twoCalls(a.alg, s, func(c *scimpich.Comm, in, out []byte) {
				c.Allreduce(in, out, s.bytes/8, scimpich.Int64, scimpich.OpSum)
			})
			forced[s.row][a.name] = v
			e.res.Rows[fmt.Sprintf("virt_us_forced_%s_%s", a.name, s.row)] = v / 1e3
		}
	}
	// Hunold et al.: the adaptive choice is within 15 % of the best forced
	// algorithm, and Allreduce is no slower than Reduce followed by Bcast.
	for _, s := range sizes {
		best, bestAlg := 0.0, ""
		for _, a := range algs {
			if v, ok := forced[s.row][a.name]; ok && (bestAlg == "" || v < best) {
				best, bestAlg = v, a.name
			}
		}
		e.claim("adaptive <= 1.15x best forced algorithm at "+s.row, per(s) <= 1.15*best,
			fmt.Sprintf("adaptive %.1f us, best %s %.1f us", per(s)/1e3, bestAlg, best/1e3))
		rb := twoCalls(scimpich.CollAuto, s, func(c *scimpich.Comm, in, out []byte) {
			c.Reduce(in, out, s.bytes/8, scimpich.Int64, scimpich.OpSum, 0)
			c.Bcast(out, s.bytes/8, scimpich.Int64, 0)
		})
		e.res.Rows["virt_us_reduce_bcast_"+s.row] = rb / 1e3
		e.claim("Allreduce <= Reduce+Bcast at "+s.row, per(s) <= rb,
			fmt.Sprintf("%.1f vs %.1f us", per(s)/1e3, rb/1e3))
	}
}

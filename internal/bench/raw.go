package bench

import (
	"time"

	"scimpich/internal/memmodel"
	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// RawResult is one row of the Figure 1 reproduction: raw SCI communication
// performance for one transfer size.
type RawResult struct {
	Size int64 `json:"size"`
	// Latencies (one transfer, data visible at the target).
	PIOWriteLatency time.Duration `json:"pio_write_ns"`
	PIOReadLatency  time.Duration `json:"pio_read_ns"`
	DMALatency      time.Duration `json:"dma_ns"`
	// Bandwidths (back-to-back transfers), MiB/s.
	PIOWriteBW float64 `json:"pio_write_mibs"`
	PIOReadBW  float64 `json:"pio_read_mibs"`
	DMABW      float64 `json:"dma_mibs"`
	// ShmCopyBW is the intra-node copy bandwidth reference.
	ShmCopyBW float64 `json:"shm_copy_mibs"`
}

// RunRaw reproduces Figure 1: latency and bandwidth of PIO and DMA
// transfers between two nodes, over the given transfer sizes.
func RunRaw(sizes []int64) []RawResult {
	results := make([]RawResult, 0, len(sizes))
	for _, size := range sizes {
		results = append(results, runRawSize(size))
	}
	return results
}

func runRawSize(size int64) RawResult {
	f := sim.NewLocalFabric(1, time.Microsecond)
	e := f.Locale(0)
	ic := sci.New(e, instrumentSCI(sci.DefaultConfig(2)))
	seg := ic.Node(1).Export(size)
	src := make([]byte, size)
	dst := make([]byte, size)
	res := RawResult{Size: size}
	const reps = 8

	e.Go("bench", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())

		// PIO write latency: post plus store barrier (data has arrived).
		start := p.Now()
		check(m.WriteStream(p, 0, src, size))
		ic.Node(0).StoreBarrier(p)
		res.PIOWriteLatency = p.Now() - start

		// PIO write bandwidth: back-to-back streams, one final barrier.
		start = p.Now()
		for i := 0; i < reps; i++ {
			check(m.WriteStream(p, 0, src, size))
		}
		ic.Node(0).StoreBarrier(p)
		res.PIOWriteBW = BWMiB(size*reps, p.Now()-start)

		// PIO read.
		start = p.Now()
		check(m.Read(p, 0, dst))
		res.PIOReadLatency = p.Now() - start
		start = p.Now()
		for i := 0; i < reps; i++ {
			check(m.Read(p, 0, dst))
		}
		res.PIOReadBW = BWMiB(size*reps, p.Now()-start)

		// DMA.
		start = p.Now()
		check(m.DMAWrite(p, 0, src).Wait(p))
		res.DMALatency = p.Now() - start
		start = p.Now()
		var reqs [reps]*sci.DMARequest
		for i := range reqs {
			reqs[i] = m.DMAWrite(p, 0, src)
		}
		for _, r := range reqs {
			check(r.Wait(p))
		}
		res.DMABW = BWMiB(size*reps, p.Now()-start)
	})
	f.Run()
	ic.Publish(ic.Cfg.Metrics)

	mem := memmodel.PentiumIII800()
	res.ShmCopyBW = mem.CopyBW(size) / MiB
	return res
}

// RawFigure formats the bandwidth part of Figure 1.
func RawFigure(results []RawResult) *Figure {
	return curves("Figure 1 (bottom): raw SCI bandwidth", "size", "MiB/s",
		[]string{"PIO-write", "PIO-read", "DMA"}, results,
		func(r RawResult) (int64, []float64) {
			return r.Size, []float64{r.PIOWriteBW, r.PIOReadBW, r.DMABW}
		})
}

// RawLatencyFigure formats the latency part of Figure 1 (µs).
func RawLatencyFigure(results []RawResult) *Figure {
	us := func(d time.Duration) float64 { return d.Seconds() * 1e6 }
	return curves("Figure 1 (top): raw SCI small-data latency", "size", "microseconds",
		[]string{"PIO-write", "PIO-read", "DMA"}, results,
		func(r RawResult) (int64, []float64) {
			return r.Size, []float64{us(r.PIOWriteLatency), us(r.PIOReadLatency), us(r.DMALatency)}
		})
}

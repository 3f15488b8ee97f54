package bench

import (
	"time"

	"scimpich/internal/sci"
	"scimpich/internal/sim"
)

// The low-level strided remote-write study of §4.3: remote writes with
// various access and stride sizes show a strong dependency of the effective
// bandwidth on the stride — between 5 and 28 MiB/s for 8-byte accesses and
// between 7 and 162 MiB/s for 256-byte accesses, with the best strides
// multiples of 32 (the Pentium-III write-combine buffer size). Disabling
// write-combining removes the drops but halves the bandwidth.

// StridedResult is one (access size, stride) measurement.
type StridedResult struct {
	AccessSize int64   `json:"access_size"`
	Stride     int64   `json:"stride"`
	BW         float64 `json:"wc_on_mibs"`  // write-combining on
	BWNoWC     float64 `json:"wc_off_mibs"` // write-combining off
}

// RunStrided sweeps strides for the given access sizes. For each access
// size, strides from access+8 up to 3*access+64 in steps of 8 bytes are
// measured, covering both write-combine-aligned (multiples of 32) and
// misaligned strides.
func RunStrided(accessSizes []int64) []StridedResult {
	var out []StridedResult
	for _, a := range accessSizes {
		for stride := a + 8; stride <= 3*a+64; stride += 8 {
			out = append(out, StridedResult{
				AccessSize: a,
				Stride:     stride,
				BW:         stridedBW(a, stride, true),
				BWNoWC:     stridedBW(a, stride, false),
			})
		}
	}
	return out
}

// stridedBW measures the raw strided remote-write bandwidth.
func stridedBW(access, stride int64, writeCombine bool) float64 {
	f := sim.NewLocalFabric(1, time.Microsecond)
	e := f.Locale(0)
	cfg := sci.DefaultConfig(2)
	cfg.WriteCombine = writeCombine
	ic := sci.New(e, instrumentSCI(cfg))
	const total = 1 << 20
	span := total / access * stride
	seg := ic.Node(1).Export(span + stride)
	src := make([]byte, total)
	var elapsed time.Duration
	e.Go("bench", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		start := p.Now()
		check(m.WriteStrided(p, 0, src, access, stride))
		ic.Node(0).StoreBarrier(p)
		elapsed = p.Now() - start
	})
	f.Run()
	ic.Publish(ic.Cfg.Metrics)
	return BWMiB(total, elapsed)
}

// StridedExtremes returns, per access size, the min and max bandwidth over
// the stride sweep (the form in which §4.3 quotes the numbers).
type StridedExtremes struct {
	AccessSize int64   `json:"access_size"`
	MinBW      float64 `json:"min_mibs"`
	MaxBW      float64 `json:"max_mibs"`
	BestStride int64   `json:"best_stride"`
}

// Extremes summarizes a stride sweep.
func Extremes(results []StridedResult) []StridedExtremes {
	var out []StridedExtremes
	byAccess := map[int64]*StridedExtremes{}
	var order []int64
	for _, r := range results {
		e, ok := byAccess[r.AccessSize]
		if !ok {
			e = &StridedExtremes{AccessSize: r.AccessSize, MinBW: r.BW, MaxBW: r.BW, BestStride: r.Stride}
			byAccess[r.AccessSize] = e
			order = append(order, r.AccessSize)
		}
		if r.BW < e.MinBW {
			e.MinBW = r.BW
		}
		if r.BW > e.MaxBW {
			e.MaxBW = r.BW
			e.BestStride = r.Stride
		}
	}
	for _, a := range order {
		out = append(out, *byAccess[a])
	}
	return out
}

// ExtremesTable formats the per-access-size extremes.
func ExtremesTable(extremes []StridedExtremes) *Table {
	t := &Table{
		Title:  "§4.3: strided remote-write bandwidth extremes over the stride sweep",
		Header: "access\tmin MiB/s\tmax MiB/s\tbest stride",
	}
	for _, e := range extremes {
		t.Add("%d\t%.1f\t%.1f\t%d", e.AccessSize, e.MinBW, e.MaxBW, e.BestStride)
	}
	return t
}

// StridedSweepAccess is the access size whose full stride sweep is printed
// (and committed) beside the extremes.
const StridedSweepAccess = 256

// StridedReport is the §4.3 study as it is published: the extremes of every
// access size and the full stride sweep of one.
type StridedReport struct {
	Extremes []StridedExtremes `json:"extremes"`
	Sweep    []StridedResult   `json:"sweep"`
}

// RunStridedReport sweeps the given access sizes and keeps the extremes of
// each plus the sweep at StridedSweepAccess.
func RunStridedReport(accessSizes []int64) StridedReport {
	results := RunStrided(accessSizes)
	rep := StridedReport{Extremes: Extremes(results)}
	for _, r := range results {
		if r.AccessSize == StridedSweepAccess {
			rep.Sweep = append(rep.Sweep, r)
		}
	}
	return rep
}

// StridedFigure formats one access size's stride sweep.
func StridedFigure(sweep []StridedResult) *Figure {
	return curves("§4.3 low-level strided remote write bandwidth", "stride", "MiB/s",
		[]string{"WC-on", "WC-off"}, sweep,
		func(r StridedResult) (int64, []float64) { return r.Stride, []float64{r.BW, r.BWNoWC} })
}

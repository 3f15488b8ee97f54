package bench

import (
	"errors"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
	"scimpich/internal/platform"
)

// The sparse micro-benchmark (paper figure 8): fine-grained strided
// one-sided accesses as they occur in sparse matrix codes. With a fixed
// access size and a stride of twice that size, each process iterates
// through its partner's part of the global window with MPI_Put or MPI_Get;
// all processes synchronize with MPI_Win_fence after posting all calls.

// SparseWinSize is the window size of the benchmark.
const SparseWinSize int64 = 256 << 10

// SparseResult is one access-size row of Figure 9.
type SparseResult struct {
	AccessSize int64 `json:"access_size"`
	// Per-call latency (µs) and aggregate bandwidth (MiB/s), for put/get
	// on windows in shared SCI memory and in private memory.
	PutSharedLat  float64 `json:"put_shared_us"`
	PutSharedBW   float64 `json:"put_shared_mibs"`
	GetSharedLat  float64 `json:"get_shared_us"`
	GetSharedBW   float64 `json:"get_shared_mibs"`
	PutPrivateLat float64 `json:"put_private_us"`
	PutPrivateBW  float64 `json:"put_private_mibs"`
	GetPrivateLat float64 `json:"get_private_us"`
	GetPrivateBW  float64 `json:"get_private_mibs"`
}

// RunSparse reproduces Figure 9 (two processes on distinct nodes).
func RunSparse(accessSizes []int64) []SparseResult {
	out := make([]SparseResult, len(accessSizes))
	for i, a := range accessSizes {
		out[i].AccessSize = a
		out[i].PutSharedLat, out[i].PutSharedBW = sparseRun(2, 1, a, true, true)
		out[i].GetSharedLat, out[i].GetSharedBW = sparseRun(2, 1, a, false, true)
		out[i].PutPrivateLat, out[i].PutPrivateBW = sparseRun(2, 1, a, true, false)
		out[i].GetPrivateLat, out[i].GetPrivateBW = sparseRun(2, 1, a, false, false)
	}
	return out
}

// sparseRun executes the figure 8 pseudo-code for one access size between
// the two ranks of a cluster of the given shape (2x1: across SCI, 1x2:
// intra-node) and returns (per-call latency in µs, bandwidth in MiB/s).
func sparseRun(nodes, procs int, accessSize int64, put, shared bool) (float64, float64) {
	var elapsed time.Duration
	var calls int64
	var moved int64
	mpi.Run(instrument(mpi.DefaultConfig(nodes, procs)), healthy(func(c *mpi.Comm) (err error) {
		s := osc.NewSystem(c)
		var w *osc.Win
		if shared {
			w = s.CreateShared(c.AllocShared(SparseWinSize), osc.DefaultConfig())
		} else {
			w = s.CreatePrivate(make([]byte, SparseWinSize), osc.DefaultConfig())
		}
		partner := 1 - c.Rank()
		buf := make([]byte, accessSize)
		stride := 2 * accessSize
		err = errors.Join(err, w.Fence())
		start := c.WtimeDuration()
		var n, bytes int64
		for off := int64(0); off+accessSize < SparseWinSize; off += stride {
			if put {
				err = errors.Join(err, w.Put(buf, int(accessSize), datatype.Byte, partner, off))
			} else {
				err = errors.Join(err, w.Get(buf, int(accessSize), datatype.Byte, partner, off))
			}
			n++
			bytes += accessSize
		}
		err = errors.Join(err, w.Fence())
		if c.Rank() == 0 {
			elapsed = c.WtimeDuration() - start
			calls = n
			moved = bytes
		}
		return err
	}))
	if calls == 0 {
		return 0, 0
	}
	latUS := elapsed.Seconds() * 1e6 / float64(calls)
	return latUS, BWMiB(moved, elapsed)
}

// sparseLabels names the four curves of Figure 9.
var sparseLabels = []string{"put-shared", "get-shared", "put-private", "get-private"}

// SparseLatencyFigure formats the latency half of Figure 9.
func SparseLatencyFigure(results []SparseResult) *Figure {
	return curves("Figure 9 (top): sparse one-sided latency (µs per call)", "access", "µs", sparseLabels, results,
		func(r SparseResult) (int64, []float64) {
			return r.AccessSize, []float64{r.PutSharedLat, r.GetSharedLat, r.PutPrivateLat, r.GetPrivateLat}
		})
}

// SparseBandwidthFigure formats the bandwidth half of Figure 9.
func SparseBandwidthFigure(results []SparseResult) *Figure {
	return curves("Figure 9 (bottom): sparse one-sided bandwidth (MiB/s)", "access", "MiB/s", sparseLabels, results,
		func(r SparseResult) (int64, []float64) {
			return r.AccessSize, []float64{r.PutSharedBW, r.GetSharedBW, r.PutPrivateBW, r.GetPrivateBW}
		})
}

// PlatformSparseResult is one platform's sparse curve (Figure 11).
type PlatformSparseResult struct {
	ID  string    `json:"id"`
	Lat []float64 `json:"us"`   // µs per call
	BW  []float64 `json:"mibs"` // MiB/s
}

// RunPlatformSparse reproduces Figure 11: the sparse benchmark on every
// configuration that supports one-sided communication, plus the VIA
// reference of [15]. SCI-MPICH rows run on the real stack.
func RunPlatformSparse(accessSizes []int64) []PlatformSparseResult {
	var out []PlatformSparseResult
	for _, pl := range platform.All() {
		if !pl.OneSided {
			continue
		}
		r := PlatformSparseResult{ID: pl.ID}
		for _, a := range accessSizes {
			lat, bw := pl.Sparse(a)
			r.Lat = append(r.Lat, lat.Seconds()*1e6)
			r.BW = append(r.BW, bw/MiB)
		}
		out = append(out, r)
	}
	// SCI-MPICH: SCI remote shared memory (M-S) and intra-node (M-s).
	ms := PlatformSparseResult{ID: "M-S"}
	mshm := PlatformSparseResult{ID: "M-s"}
	for _, a := range accessSizes {
		lat, bw := sparseRun(2, 1, a, true, true)
		ms.Lat = append(ms.Lat, lat)
		ms.BW = append(ms.BW, bw)
		lat, bw = sparseRun(1, 2, a, true, true)
		mshm.Lat = append(mshm.Lat, lat)
		mshm.BW = append(mshm.BW, bw)
	}
	out = append(out, ms, mshm)
	return out
}

// PlatformSparseFigure formats Figure 11 (bandwidth view).
func PlatformSparseFigure(accessSizes []int64, results []PlatformSparseResult) *Figure {
	f := &Figure{
		Title:  "Figure 11: one-sided sparse bandwidth across platforms (MiB/s)",
		XLabel: "access",
		YLabel: "MiB/s",
		X:      ToF(accessSizes),
	}
	for _, r := range results {
		f.Series = append(f.Series, Series{Label: r.ID, Values: r.BW})
	}
	return f
}

// PlatformSparseLatencyFigure formats Figure 11's latency view.
func PlatformSparseLatencyFigure(accessSizes []int64, results []PlatformSparseResult) *Figure {
	f := &Figure{
		Title:  "Figure 11: one-sided sparse latency across platforms (µs per call)",
		XLabel: "access",
		YLabel: "µs",
		X:      ToF(accessSizes),
	}
	for _, r := range results {
		f.Series = append(f.Series, Series{Label: r.ID, Values: r.Lat})
	}
	return f
}

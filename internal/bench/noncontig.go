package bench

import (
	"errors"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/platform"
)

// The noncontig micro-benchmark (paper §3.4): transmit a single-strided
// vector datatype whose block size doubles from 8 bytes to 128 kiB with a
// stride of twice the block size (equal data and gaps); every transfer
// moves the same total payload (256 kiB). Compared are the generic
// pack-and-send baseline, the direct_pack_ff transport, and the equivalent
// contiguous transfer, both inter-node (SCI) and intra-node (shared
// memory).

// NoncontigTotal is the per-transfer payload of the benchmark.
const NoncontigTotal = 256 << 10

// NoncontigResult is one block-size row of Figure 7.
type NoncontigResult struct {
	BlockSize int64 `json:"block_size"`
	// Bandwidths in MiB/s.
	InterGeneric float64 `json:"sci_generic_mibs"`
	InterFF      float64 `json:"sci_ff_mibs"`
	InterContig  float64 `json:"sci_contig_mibs"`
	IntraGeneric float64 `json:"shm_generic_mibs"`
	IntraFF      float64 `json:"shm_ff_mibs"`
	IntraContig  float64 `json:"shm_contig_mibs"`
}

// RunNoncontig reproduces Figure 7 over the given block sizes.
func RunNoncontig(blockSizes []int64) []NoncontigResult {
	// The contiguous reference does not depend on the block size.
	interContig, intraContig := contigBW(2, 1), contigBW(1, 2)
	results := make([]NoncontigResult, len(blockSizes))
	for i, bs := range blockSizes {
		results[i] = NoncontigResult{
			BlockSize:    bs,
			InterGeneric: noncontigBW(2, 1, bs, false),
			InterFF:      noncontigBW(2, 1, bs, true),
			InterContig:  interContig,
			IntraGeneric: noncontigBW(1, 2, bs, false),
			IntraFF:      noncontigBW(1, 2, bs, true),
			IntraContig:  intraContig,
		}
	}
	return results
}

// vectorType builds the benchmark's strided vector: blocks of bs bytes of
// doubles, gaps of the same size, summing to NoncontigTotal data bytes.
func vectorType(bs int64) *datatype.Type {
	elems := int(bs / 8) // doubles per block
	count := int(NoncontigTotal / bs)
	return datatype.Vector(count, elems, 2*elems, datatype.Float64).Commit()
}

// streamBW is the two-rank stream every datatype bandwidth in this package
// is measured with: after a barrier rank 0 sends count instances of ty reps
// times back to back, rank 1 receives them and confirms full delivery with
// an empty message; the bandwidth is the payload over rank 0's elapsed
// virtual time. The protocol configuration is taken exactly as given.
func streamBW(cfg mpi.Config, ty *datatype.Type, count, reps int) float64 {
	span := ty.LB() + ty.Span(count) + 64
	src := make([]byte, span)
	dst := make([]byte, span)
	var elapsed time.Duration
	mpi.Run(cfg, healthy(func(c *mpi.Comm) (err error) {
		switch c.Rank() {
		case 0:
			err = errors.Join(err, c.Barrier())
			start := c.WtimeDuration()
			for i := 0; i < reps; i++ {
				err = errors.Join(err, c.Send(src, count, ty, 1, i))
			}
			err = errors.Join(err, errOf(c.Recv(nil, 0, datatype.Byte, 1, 999)))
			elapsed = c.WtimeDuration() - start
		case 1:
			err = errors.Join(err, c.Barrier())
			for i := 0; i < reps; i++ {
				err = errors.Join(err, errOf(c.Recv(dst, count, ty, 0, i)))
			}
			err = errors.Join(err, c.Send(nil, 0, datatype.Byte, 0, 999))
		}
		return err
	}))
	return BWMiB(ty.Size()*int64(count*reps), elapsed)
}

// noncontigReps is the stream length of the 256 kiB benchmarks.
const noncontigReps = 4

// staticPath pins the legacy static deposit paths, so that UseFF measures
// direct_pack_ff itself and not whatever the adaptive chooser prefers at a
// block size: the figure 7 family is an engine ablation.
func staticPath(cfg mpi.Config, useFF bool) mpi.Config {
	cfg.Protocol.UseFF = useFF
	cfg.Protocol.Path = mpi.PathStatic
	return cfg
}

// noncontigBW measures the strided-vector bandwidth on a cluster of the
// given shape.
func noncontigBW(nodes, procs int, bs int64, useFF bool) float64 {
	return vectorBW(staticPath(instrument(mpi.DefaultConfig(nodes, procs)), useFF), bs)
}

// vectorBW measures the strided-vector workload on a custom cluster
// configuration (the UltraSparc II reproduction, the DMA path-selection
// suite with its own deposit policy).
func vectorBW(cfg mpi.Config, bs int64) float64 {
	return streamBW(cfg, vectorType(bs), 1, noncontigReps)
}

// contigBW measures the contiguous 256 kiB reference transfer on a cluster
// of the given shape.
func contigBW(nodes, procs int) float64 {
	return contigBWOn(instrument(mpi.DefaultConfig(nodes, procs)))
}

// contigBWOn is the contiguous reference on a custom cluster configuration.
func contigBWOn(cfg mpi.Config) float64 {
	return streamBW(cfg, datatype.Byte, NoncontigTotal, noncontigReps)
}

// doubleStridedType builds the figure 2 "double-strided" case: a vector of
// vectors, as produced by exchanging a 2-D face of a 3-D ocean decomposition
// (blocks of bs bytes, strided in two dimensions).
func doubleStridedType(bs int64) *datatype.Type {
	elems := int(bs / 8)
	inner := datatype.Vector(8, elems, 2*elems, datatype.Float64) // 8 blocks per row
	rowExtent := inner.Extent() + 64                              // inter-row gap
	count := int(NoncontigTotal / (8 * bs))
	return datatype.Vector(count, 1, 1, datatype.Resized(inner, 0, rowExtent)).Commit()
}

// Noncontig2DResult extends the benchmark to the double-strided datatype.
type Noncontig2DResult struct {
	BlockSize    int64   `json:"block_size"`
	InterGeneric float64 `json:"sci_generic_mibs"`
	InterFF      float64 `json:"sci_ff_mibs"`
}

// RunNoncontig2D measures the double-strided exchange over SCI.
func RunNoncontig2D(blockSizes []int64) []Noncontig2DResult {
	out := make([]Noncontig2DResult, len(blockSizes))
	for i, bs := range blockSizes {
		ty := doubleStridedType(bs)
		out[i] = Noncontig2DResult{
			BlockSize:    bs,
			InterGeneric: streamBW(staticPath(instrument(mpi.DefaultConfig(2, 1)), false), ty, 1, noncontigReps),
			InterFF:      streamBW(staticPath(instrument(mpi.DefaultConfig(2, 1)), true), ty, 1, noncontigReps),
		}
	}
	return out
}

// Noncontig2DFigure formats the double-strided sweep.
func Noncontig2DFigure(results []Noncontig2DResult) *Figure {
	return curves("Double-strided (figure 2) transfers over SCI (MiB/s)", "blocksize", "MiB/s",
		[]string{"SCI-generic", "SCI-ff"}, results,
		func(r Noncontig2DResult) (int64, []float64) {
			return r.BlockSize, []float64{r.InterGeneric, r.InterFF}
		})
}

// NoncontigFigure formats Figure 7.
func NoncontigFigure(results []NoncontigResult) *Figure {
	return curves("Figure 7: non-contiguous transfers, generic vs direct_pack_ff (MiB/s)", "blocksize", "MiB/s",
		[]string{"SCI-generic", "SCI-ff", "SCI-contig", "shm-generic", "shm-ff", "shm-contig"}, results,
		func(r NoncontigResult) (int64, []float64) {
			return r.BlockSize, []float64{r.InterGeneric, r.InterFF, r.InterContig, r.IntraGeneric, r.IntraFF, r.IntraContig}
		})
}

// PlatformNoncontigResult is one row of Figure 10: nc and contiguous
// bandwidth per platform.
type PlatformNoncontigResult struct {
	ID string    `json:"id"`
	NC []float64 `json:"nc_mibs"` // per block size, MiB/s
	C  []float64 `json:"c_mibs"`
}

// RunPlatformNoncontig reproduces Figure 10: the strided-vector benchmark
// on every Table 1 configuration. The SCI-MPICH rows run on the simulated
// stack; the others use the calibrated comparator models.
func RunPlatformNoncontig(blockSizes []int64) []PlatformNoncontigResult {
	var out []PlatformNoncontigResult

	// Comparator platforms.
	for _, pl := range platform.All() {
		if pl.ID == "VIA" {
			continue // §5.3 reference for one-sided only
		}
		r := PlatformNoncontigResult{ID: pl.ID}
		for _, bs := range blockSizes {
			nc, c := pl.NoncontigBW(bs, NoncontigTotal)
			r.NC = append(r.NC, nc/MiB)
			r.C = append(r.C, c/MiB)
		}
		out = append(out, r)
	}

	// SCI-MPICH over SCI (M-S) and shared memory (M-s), on the real stack.
	ms := PlatformNoncontigResult{ID: "M-S"}
	mshm := PlatformNoncontigResult{ID: "M-s"}
	interContig, intraContig := contigBW(2, 1), contigBW(1, 2)
	for _, bs := range blockSizes {
		ms.NC = append(ms.NC, noncontigBW(2, 1, bs, true))
		ms.C = append(ms.C, interContig)
		mshm.NC = append(mshm.NC, noncontigBW(1, 2, bs, true))
		mshm.C = append(mshm.C, intraContig)
	}
	out = append(out, ms, mshm)
	return out
}

// PlatformNoncontigFigure formats Figure 10.
func PlatformNoncontigFigure(blockSizes []int64, results []PlatformNoncontigResult) *Figure {
	f := &Figure{
		Title:  "Figure 10: non-contiguous datatype bandwidth across platforms (nc and c, MiB/s)",
		XLabel: "blocksize",
		YLabel: "MiB/s",
		X:      ToF(blockSizes),
	}
	for _, r := range results {
		f.Series = append(f.Series,
			Series{Label: r.ID + "-nc", Values: r.NC},
			Series{Label: r.ID + "-c", Values: r.C},
		)
	}
	return f
}

// Table1Row is one configuration of the platform inventory (Table 1).
type Table1Row struct {
	ID           string `json:"id"`
	Machine      string `json:"machine"`
	Interconnect string `json:"interconnect"`
	MPI          string `json:"mpi"`
	OSC          string `json:"osc"`
}

// RunTable1 lists the comparator platforms and the two configurations of
// this repository's own stack.
func RunTable1() []Table1Row {
	var rows []Table1Row
	for _, pl := range platform.All() {
		osc := "no"
		if pl.OneSided {
			osc = "yes"
		}
		if pl.GetOnly {
			osc = "yes (Get only)"
		}
		rows = append(rows, Table1Row{pl.ID, pl.Machine, pl.Interconnect, pl.MPI, osc})
	}
	return append(rows,
		Table1Row{"M-S", "PentiumIII dual SMP", "SCI", "MP-MPICH (this repo)", "yes"},
		Table1Row{"M-s", "PentiumIII dual SMP", "shared memory", "MP-MPICH (this repo)", "yes"})
}

// Table1Table formats Table 1.
func Table1Table(rows []Table1Row) *Table {
	t := &Table{
		Title:  "Table 1: cluster platforms for evaluation of MPI performance",
		Header: "ID\tMachine\tInterconnect\tMPI\tOSC",
	}
	for _, r := range rows {
		t.Add("%s\t%s\t%s\t%s\t%s", r.ID, r.Machine, r.Interconnect, r.MPI, r.OSC)
	}
	return t
}

package bench

import (
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs"
)

// A derived-datatype benchmark suite in the spirit of the paper's reference
// [24] (Reussner, Träff, Hunzelmann: "A Benchmark for MPI Derived
// Datatypes"): a matrix of representative datatype patterns, each
// transmitted with the generic engine and with direct_pack_ff, reported as
// efficiency relative to the equivalent contiguous transfer. The paper
// cites [24]'s finding of "significantly reduced performance for
// non-contiguous datatypes opposed to the contiguous equivalent" across
// platforms — this suite shows where direct_pack_ff closes that gap.

// DTPattern is one datatype pattern of the suite.
type DTPattern struct {
	Name string
	// Build returns the committed type and instance count such that the
	// payload is roughly NoncontigTotal bytes.
	Build func() (*datatype.Type, int)
}

// DTPatterns returns the benchmark's pattern matrix.
func DTPatterns() []DTPattern {
	return []DTPattern{
		{Name: "contiguous", Build: func() (*datatype.Type, int) {
			return datatype.Contiguous(NoncontigTotal/8, datatype.Float64).Commit(), 1
		}},
		{Name: "vector-small-blocks", Build: func() (*datatype.Type, int) {
			// 64-byte blocks, equal gaps.
			return datatype.Vector(NoncontigTotal/64, 8, 16, datatype.Float64).Commit(), 1
		}},
		{Name: "vector-large-blocks", Build: func() (*datatype.Type, int) {
			// 8 kiB blocks, equal gaps.
			return datatype.Vector(NoncontigTotal/8192, 1024, 2048, datatype.Float64).Commit(), 1
		}},
		{Name: "hvector-misaligned", Build: func() (*datatype.Type, int) {
			// 40-byte blocks at a 104-byte stride: nothing aligns to the
			// write-combine buffer.
			count := NoncontigTotal / 40
			return datatype.Hvector(count, 5, 104, datatype.Float64).Commit(), 1
		}},
		{Name: "indexed-irregular", Build: func() (*datatype.Type, int) {
			// Irregular block lengths 1..16 elements with growing gaps.
			var lens, displs []int
			next := 0
			total := 0
			for i := 0; total < NoncontigTotal/8; i++ {
				l := 1 + (i*7)%16
				lens = append(lens, l)
				displs = append(displs, next)
				next += l + 1 + i%5
				total += l
			}
			return datatype.Indexed(lens, displs, datatype.Float64).Commit(), 1
		}},
		{Name: "struct-vector", Build: func() (*datatype.Type, int) {
			// The paper's figure 3 type: a vector of structs (int + 3
			// chars + gap).
			st := datatype.StructOf(
				datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
				datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
			)
			st = datatype.Resized(st, 0, 12)
			count := NoncontigTotal / 7
			return datatype.Vector(count, 1, 1, st).Commit(), 1
		}},
		{Name: "nested-double-strided", Build: func() (*datatype.Type, int) {
			return doubleStridedType(256), 1
		}},
		{Name: "subarray-2d-face", Build: func() (*datatype.Type, int) {
			// The interior column block of a 2-D array: 256 rows of 128
			// doubles out of 512-double rows.
			return datatype.Subarray([]int{256, 512}, []int{256, 128}, []int{0, 192}, datatype.Float64).Commit(), 1
		}},
	}
}

// DTResult is one pattern's outcome.
type DTResult struct {
	Name       string  `json:"pattern"`
	Bytes      int64   `json:"bytes"`
	GenericBW  float64 `json:"generic_mibs"`
	FFBW       float64 `json:"ff_mibs"`
	ContigBW   float64 `json:"contig_mibs"`
	GenericEff float64 `json:"generic_eff"` // relative to contiguous
	FFEff      float64 `json:"ff_eff"`
	// AdaptiveBW is the bandwidth under the adaptive path chooser, and
	// Chosen the deposit engine it settled on for the pattern.
	AdaptiveBW  float64 `json:"adaptive_mibs"`
	AdaptiveEff float64 `json:"adaptive_eff"`
	Chosen      string  `json:"chosen"`
}

// RunDTBench executes the suite between two nodes.
func RunDTBench() []DTResult {
	contig := contigBW(2, 1)
	var out []DTResult
	for _, pat := range DTPatterns() {
		ty, count := pat.Build()
		gen := dtRun(ty, count, false)
		ff := dtRun(ty, count, true)
		ad, chosen := dtRunAdaptive(ty, count)
		out = append(out, DTResult{
			Name:        pat.Name,
			Bytes:       ty.Size() * int64(count),
			GenericBW:   gen,
			FFBW:        ff,
			ContigBW:    contig,
			GenericEff:  gen / contig,
			FFEff:       ff / contig,
			AdaptiveBW:  ad,
			AdaptiveEff: ad / contig,
			Chosen:      chosen,
		})
	}
	return out
}

// dtReps is the stream length of the suite.
const dtReps = 3

// dtRun measures one pattern's transfer bandwidth with the static engines
// (the suite's generic-vs-ff ablation is about the engines themselves).
func dtRun(ty *datatype.Type, count int, useFF bool) float64 {
	return streamBW(staticPath(instrument(mpi.DefaultConfig(2, 1)), useFF), ty, count, dtReps)
}

// dtRunAdaptive measures the pattern under the adaptive chooser and reports
// the deposit engine it picked for the majority of chunks.
func dtRunAdaptive(ty *datatype.Type, count int) (float64, string) {
	cfg := instrument(mpi.DefaultConfig(2, 1))
	cfg.Protocol.UseFF = true
	cfg.Protocol.Path = mpi.PathAdaptive
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	bw := streamBW(cfg, ty, count, dtReps)
	return bw, dominantPath(reg)
}

// DTBenchTable formats the suite: bandwidths, efficiency relative to the
// contiguous transfer, and the engine the adaptive chooser settled on.
func DTBenchTable(results []DTResult) *Table {
	t := &Table{
		Title:  "Derived-datatype suite (cf. paper ref [24]), 2 nodes via SCI",
		Header: "pattern\tbytes\tgeneric MiB/s\tff MiB/s\tadaptive MiB/s\tcontig MiB/s\tgeneric eff\tff eff\tadaptive eff\tchosen",
	}
	for _, r := range results {
		t.Add("%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\t%.2f\t%.2f\t%s",
			r.Name, r.Bytes, r.GenericBW, r.FFBW, r.AdaptiveBW, r.ContigBW, r.GenericEff, r.FFEff, r.AdaptiveEff, r.Chosen)
	}
	return t
}

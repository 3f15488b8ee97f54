package bench

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"scimpich/internal/mpi"
	"scimpich/internal/ring"
)

// The table of experiments. Every figure, table and artefact this
// repository regenerates is one row of Suites: what it is called, what it
// reproduces, how its rows are computed, how they are rendered and — where
// the rows are a committed artefact — the file that holds them. cmd/repro
// and cmd/benchjson know nothing else about the experiments.

// Sweep is what a command line can say about a run.
type Sweep struct {
	// Min and Max bound the size axis of the suites that have one; zero
	// keeps the suite's default.
	Min, Max int64
	// Quick asks for coarser sweeps and smaller machines.
	Quick bool
}

// sizes resolves a suite's power-of-two size axis, by default [lo, hi].
func (s Sweep) sizes(lo, hi int64) []int64 {
	if s.Quick {
		lo, hi = max(lo, 64), min(hi, 16<<10)
	}
	if s.Min > 0 {
		lo = s.Min
	}
	if s.Max > 0 {
		hi = s.Max
	}
	return Sizes(lo, hi)
}

// Suite is one row of the table.
type Suite struct {
	// Name selects the suite (repro -only).
	Name string
	// Reproduces names the figure, table or claim the suite regenerates.
	Reproduces string
	// File is the committed artefact the rows are written to, "" for none.
	// Suites that share a file are its named parts, in table order.
	File string
	// Run computes the rows. They are a function of the sweep and the
	// model only, and marshal to JSON. A non-nil error reports a failed
	// gate; the rows are still the ones measured.
	Run func(Sweep) (rows any, err error)
	// Print renders rows as aligned tables; csv renders the figures among
	// them as comma-separated values instead.
	Print func(w io.Writer, rows any, csv bool)
}

// block is one rendered piece of a suite's output: a *Figure, a *Table or
// a text.
type block interface{ Print(io.Writer) }

// suite builds a row of the table from its typed halves.
func suite[R any](name, reproduces, file string, run func(Sweep) (R, error), render func(R) []block) Suite {
	return Suite{
		Name: name, Reproduces: reproduces, File: file,
		Run: func(s Sweep) (any, error) { return run(s) },
		Print: func(w io.Writer, rows any, csv bool) {
			for _, b := range render(rows.(R)) {
				if f, ok := b.(*Figure); ok && csv {
					f.CSV(w)
					fmt.Fprintln(w)
				} else {
					b.Print(w)
				}
			}
		},
	}
}

// rows adapts a driver that has no gate.
func rows[R any](run func(Sweep) R) func(Sweep) (R, error) {
	return func(s Sweep) (R, error) { return run(s), nil }
}

// healthy adapts to mpi.Run a kernel's rank body, which returns the errors
// of its MPI calls (errors.Join). The experiments drive healthy clusters,
// so a failed call is a defect of the model: it stops the run.
func healthy(body func(c *mpi.Comm) error) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		if err := body(c); err != nil {
			panic(fmt.Sprintf("bench: rank %d: %v", c.Rank(), err))
		}
	}
}

// check stops a bare-interconnect kernel on a failed access: the cluster
// is healthy, so the failure is a defect of the model.
func check(err error) {
	if err != nil {
		panic(err)
	}
}

// errOf is the error of a call whose value (a Status) the kernel ignores.
func errOf[T any](_ T, err error) error { return err }

// gated turns a driver's gate verdict into Run's error.
func gated[R any](rows R, ok bool, gates string) (R, error) {
	if !ok {
		return rows, errors.New(gates + " failed")
	}
	return rows, nil
}

// PaperFile holds the paper's own figures and tables.
const PaperFile = "BENCH_paper.json"

// platformRows carries a cross-platform figure's size axis with its curves.
type platformRows[R any] struct {
	Sizes     []int64 `json:"sizes"`
	Platforms []R     `json:"platforms"`
}

// Suites is the table, in report order: the paper's evaluation, the
// extension experiments, the four artefact suites of the extensions, then
// the gated ablations of the design choices.
var Suites = []Suite{
	suite("fig1", "Figure 1: raw SCI communication performance (PIO and DMA latency and bandwidth)", PaperFile,
		rows(func(s Sweep) []RawResult { return RunRaw(s.sizes(8, 512<<10)) }),
		func(r []RawResult) []block { return []block{RawLatencyFigure(r), RawFigure(r)} }),
	suite("pingpong", "protocol sweep: ping-pong across the short, eager and rendezvous protocols, SCI and shared memory", "",
		rows(func(s Sweep) []PingPongResult { return RunPingPong(s.sizes(1, 1<<20)) }),
		func(r []PingPongResult) []block { return []block{PingPongFigure(r)} }),
	suite("fig2", "Figure 2: the double-strided boundary exchange, generic vs direct_pack_ff over SCI", "",
		rows(func(s Sweep) []Noncontig2DResult { return RunNoncontig2D(s.sizes(8, 128<<10)) }),
		func(r []Noncontig2DResult) []block { return []block{Noncontig2DFigure(r)} }),
	suite("fig7", "Figure 7: non-contiguous datatype transfers, generic vs direct_pack_ff vs contiguous, SCI and shared memory", PaperFile,
		rows(func(s Sweep) []NoncontigResult { return RunNoncontig(s.sizes(8, 128<<10)) }),
		func(r []NoncontigResult) []block { return []block{NoncontigFigure(r)} }),
	suite("fig9", "Figure 9: sparse one-sided micro-benchmark, put/get on shared and private windows", PaperFile,
		rows(func(s Sweep) []SparseResult { return RunSparse(s.sizes(8, 64<<10)) }),
		func(r []SparseResult) []block { return []block{SparseLatencyFigure(r), SparseBandwidthFigure(r)} }),
	suite("strided", "Section 4.3: strided remote-write study (stride sensitivity, write-combining)", PaperFile,
		rows(func(s Sweep) StridedReport {
			if s.Quick {
				return RunStridedReport([]int64{8, 256})
			}
			return RunStridedReport([]int64{8, 64, 256, 1024})
		}),
		func(r StridedReport) []block { return []block{ExtremesTable(r.Extremes), StridedFigure(r.Sweep)} }),
	suite("tab1", "Table 1: the platform inventory of the cross-platform figures", "",
		rows(func(Sweep) []Table1Row { return RunTable1() }),
		func(r []Table1Row) []block { return []block{Table1Table(r)} }),
	suite("fig10", "Figure 10: non-contiguous datatypes across platforms", PaperFile,
		rows(func(s Sweep) platformRows[PlatformNoncontigResult] {
			sizes := s.sizes(8, 128<<10)
			return platformRows[PlatformNoncontigResult]{sizes, RunPlatformNoncontig(sizes)}
		}),
		func(r platformRows[PlatformNoncontigResult]) []block {
			return []block{PlatformNoncontigFigure(r.Sizes, r.Platforms)}
		}),
	suite("fig11", "Figure 11: one-sided communication across platforms", PaperFile,
		rows(func(s Sweep) platformRows[PlatformSparseResult] {
			sizes := s.sizes(8, 64<<10)
			return platformRows[PlatformSparseResult]{sizes, RunPlatformSparse(sizes)}
		}),
		func(r platformRows[PlatformSparseResult]) []block {
			return []block{PlatformSparseLatencyFigure(r.Sizes, r.Platforms), PlatformSparseFigure(r.Sizes, r.Platforms)}
		}),
	suite("fig12", "Figure 12: scaling of one-sided strided communication", PaperFile,
		rows(func(Sweep) []ScalingSeries { return RunScaling(64 << 10) }),
		func(r []ScalingSeries) []block { return []block{ScalingFigure(r)} }),
	suite("tab2", "Table 2: ring scalability vs segment utilization, at 166 MHz and the 200 MHz rerun", PaperFile,
		rows(func(Sweep) []Table2 {
			return []Table2{{ring.DefaultLinkMHz, RunTable2(ring.DefaultLinkMHz)}, {200, RunTable2(200)}}
		}),
		func(r []Table2) []block { return []block{Table2Table(r[0]), Table2Table(r[1])} }),
	suite("compare", "Section 6: one-sided vs two-sided communication", "",
		rows(func(Sweep) OneVsTwoSidedResult { return RunOneVsTwoSided() }),
		func(r OneVsTwoSidedResult) []block {
			return []block{OneVsTwoSidedTable(r), text(`As the paper concludes: with synchronization included, one-sided
communication does not provide lower micro-benchmark latencies; its
advantage appears when the target must not participate.

`)}
		}),
	suite("dtbench", "derived-datatype pattern suite (cf. paper ref [24])", "",
		rows(func(Sweep) []DTResult { return RunDTBench() }),
		func(r []DTResult) []block { return []block{DTBenchTable(r)} }),
	suite("torus", "Section 6 outlook: the 512-node 3D torus, projected and measured", "",
		func(s Sweep) (TorusOutlook, error) {
			dims, shards := EngineDims, 8
			if s.Quick {
				dims, shards = [3]int{4, 4, 4}, 2
			}
			m, err := engineRow(mpi.DefaultTorusConfig(dims[0], dims[1], dims[2], shards), true)
			return TorusOutlook{RunTorusProjection(TorusMHz), m}, err
		},
		func(r TorusOutlook) []block {
			projection, measured := TorusTables(r)
			return []block{projection, measured}
		}),
	suite("dma", "rendezvous deposit engines forced in turn vs the adaptive chooser, per block size", "BENCH_dma.json",
		rows(func(s Sweep) []DMAPathResult {
			if s.Quick {
				return RunDMAPathBench([]int64{8, 256, 8192})
			}
			return RunDMAPathBench(DMAPathBlockSizes())
		}),
		func(r []DMAPathResult) []block { return []block{text(FormatDMAPath(r))} }),
	suite("coll", "collective algorithm families forced in turn vs the adaptive chooser, per collective, payload and cluster size", "BENCH_coll.json",
		rows(func(s Sweep) []CollResult {
			if s.Quick {
				return runCollBench([]int{4}, 64<<10)
			}
			return RunCollBench(CollNodeCounts())
		}),
		func(r []CollResult) []block { return []block{text(FormatColl(r))} }),
	suite("rmem", "replicated remote memory: crash-free baseline vs a primary crash mid-workload, with the availability gates", "BENCH_rmem.json",
		func(Sweep) ([]RmemResult, error) {
			r, ok := RunRmemBench()
			return gated(r, ok, "rmem availability gates")
		},
		func(r []RmemResult) []block { return []block{text(FormatRmem(r))} }),
	suite("engine", "the 512-node torus ring allreduce, sequential oracle vs sharded engine, with the determinism gates, and the full-stack MPI ring allreduce", "BENCH_engine.json",
		func(s Sweep) ([]EngineResult, error) {
			dims, shards := EngineDims, EngineShardCounts
			if s.Quick {
				dims, shards = [3]int{4, 4, 4}, []int{2, 4}
			}
			r, ok := RunEngineBenchAt(dims[0], dims[1], dims[2], shards)
			return gated(r, ok, "engine determinism gates")
		},
		func(r []EngineResult) []block { return []block{text(FormatEngine(r))} }),
	suite("ablation", "the design choices DESIGN.md §5 ablates — rendezvous chunk, get as remote-put, write-combining, DMA rendezvous, a faulted exchange and a degraded put — each claim a gate", AblationFile,
		func(Sweep) (ablationRows, error) {
			r := runAblation()
			ok := gateAblation(&r)
			return gated(r, ok, "ablation claims")
		},
		ablationTables),
}

// Select resolves a comma-separated list of suite names to rows of the
// table, in table order; the empty list selects the whole table.
func Select(only string) ([]Suite, error) {
	if only == "" {
		return Suites, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(only, ",") {
		if !slices.ContainsFunc(Suites, func(s Suite) bool { return s.Name == name }) {
			var names []string
			for _, s := range Suites {
				names = append(names, s.Name)
			}
			return nil, fmt.Errorf("unknown suite %q (the table has: %s)", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	var sel []Suite
	for _, s := range Suites {
		if want[s.Name] {
			sel = append(sel, s)
		}
	}
	return sel, nil
}

package main

import (
	"encoding/json"
	"strings"
)

// The benchmark's contract: workloads, end-to-end metrics with their
// regression bounds, and the per-layer metrics every traced run reports.
// `benchmark spec` prints it in the layout of /BENCHMARK.json; the smoke
// test keeps the committed file equal to this table.

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is the measuring time of one driver run: five repetitions of
// about two seconds each at scale 1.
const runSeconds = 10

// repetitions is the number of fresh worker processes per run.
const repetitions = 5

// endToEnd lists the gated metrics; every workload reports all of them, as
// the median over the repetitions. The virtual-time metrics repeat exactly
// for one seed; their bound only has to cover what another seed changes on
// rmem_failover (crash instants, key streams: 0.3 % measured).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_bytes_per_op", "B", "lower", 0.02},
	{"retained_heap_mb", "MiB", "lower", 0.10},
	{"virt_ops_per_s", "1/s", "higher", 0.01},
	{"virt_tail_ops_per_s", "1/s", "higher", 0.01},
	{"virt_bandwidth_mibs", "MiB/s", "higher", 0.01},
}

// wallMetric is measured and reported exactly like an end-to-end metric
// (tracing off, median over the repetitions, quartiles, compare) but gates
// nothing: on the machine the benchmark was built on, the same commit's
// runs spread by 7-23 % (the VM's speed changes by a fifth over tens of
// seconds, for all workloads at once), which no bound up to the allowed
// quarter covers with a margin. /BENCHMARK.json carries it per layer.
var wallMetric = metricSpec{"wall_ns_per_op", "ns", "lower", 0.25}

// reported is what every untraced run summarises: the gates and the wall clock.
var reported = append(append([]metricSpec{}, endToEnd...), wallMetric)

// exactForSeed names the end-to-end metrics that are virtual-time results:
// two results of the same seed must agree on them bit for bit.
var exactForSeed = map[string]bool{
	"virt_ops_per_s": true, "virt_tail_ops_per_s": true, "virt_bandwidth_mibs": true,
}

func layerSpecs() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// Work done, from the obs.Registry of the traced repetition, per operation.
	add("count", "lower",
		"flow.starts_per_op", "flow.active_max",
		"sci.pio_ops_per_op", "sci.dma_transfers_per_op", "sci.retries",
		"bufpool.gets_per_op", "bufpool.misses_per_op",
		"mpi.short_per_op", "mpi.eager_per_op", "mpi.rdv_per_op",
		"mpi.path_pio_per_op", "mpi.path_staged_per_op", "mpi.path_dma_per_op", "mpi.path_generic_per_op",
		"mpi.coll_p2p_per_op", "mpi.coll_recdbl_per_op", "mpi.coll_ring_per_op", "mpi.coll_onesided_per_op",
		"osc.direct_puts_per_op", "osc.emulated_puts_per_op", "osc.direct_gets_per_op", "osc.remote_put_gets_per_op",
		"fault.injected")
	add("B", "lower",
		"pack.ff_bytes_per_op", "pack.generic_bytes_per_op", "sci.pio_bytes_per_op", "sci.read_bytes_per_op")
	// Estimated share of the timed wall time: count x replay unit cost.
	add("ratio", "lower", "flow.est_share", "pack.est_share", "sci.est_share")
	// Unit costs from the layer replays.
	add("ns", "lower",
		"sim.event_ns", "sim.proc_switch_ns",
		"flow.start_finish_ns_n216", "flow.start_finish_ns_n8",
		"pack.ff_ns_per_kib_b8", "pack.ff_ns_per_kib_b16", "pack.ff_ns_per_kib_b128", "pack.ff_ns_per_kib_b1024",
		"pack.generic_ns_per_kib_b8", "pack.generic_ns_per_kib_b1024", "pack.cursor_chunk_ns_per_kib_b8",
		"datatype.commit_ns_vector", "datatype.commit_ns_indexed1k",
		"sci.write_stream_ns_per_kib", "sci.write_word_ns", "sci.write_put_ns_a8", "sci.read_strided_ns_a8",
		"shmem.rtt_wall_ns", "bufpool.get_put_ns",
		"mpi.world_build_ns_r2", "mpi.world_build_ns_r16", "mpi.world_run_empty_ns_r16",
		"obs.counter_ns", "obs.flight_record_ns")
	add("1/s", "higher", "sim.seq_events_per_s_t64", "sim.sharded2_events_per_s_t64")
	add("count", "lower", "sim.sharded2_windows_t64", "pack.allocs_per_call", "mpi.world_goroutines_left_r16")
	add("MiB", "lower", "mpi.world_alloc_mb_r16")
	// Wall time inside the benchmark's spans (rank 0 and host), per operation.
	add("ns", "lower",
		"span.build_wall_ns_per_op", "span.run_wall_ns_per_op",
		"mpi.send_wall_ns_per_op", "mpi.recv_wall_ns_per_op", "mpi.coll_wall_ns_per_op",
		"osc.access_wall_ns_per_op", "osc.fence_wall_ns_per_op")
	// Instrumentation.
	add("ratio", "lower", "obs.trace_overhead_share")
	add("ratio", "lower",
		"obs.virt_span_share_send", "obs.virt_span_share_recv", "obs.virt_span_share_pack",
		"obs.virt_span_share_transfer", "obs.virt_span_share_osc", "obs.virt_span_share_coll")
	// Host. wall_ns_per_op is the median of the untraced repetitions.
	add(wallMetric.Unit, wallMetric.Better, wallMetric.Name)
	add("MiB", "lower", "runtime.peak_rss_mb")
	add("count", "lower", "runtime.gc_cycles")
	add("ms", "lower", "runtime.gc_pause_total_ms")
	add("ratio", "lower", "runtime.cpu_s_per_wall_s")
	for _, l := range profLayers {
		add("ratio", "lower", "prof.share_"+l)
	}
	// Correctness, as counts (the end-to-end result carries them as
	// `failed` and `correct`).
	add("count", "lower", "check.ops_failed", "check.model_claims_failed")
	return out
}

// benchmarkJSON renders the contract in the layout of /BENCHMARK.json.
func benchmarkJSON() []byte {
	type spec struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	s := spec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   layerSpecs(),
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{Name: w.name, Why: w.why})
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		panic(err)
	}
	return []byte(sb.String())
}

// Package obs is the unified observability layer of the simulation: a
// metrics registry of named counters, gauges and log-bucketed latency
// histograms, plus span-based tracing layered on virtual time.
//
// Every protocol layer (sci, mpi, osc, pack, flow, fault) reports into
// these sinks:
//
//   - A Registry holds labelled metrics. Counters and gauges are plain
//     totals added at publish; histograms bucket values by powers of two
//     and answer quantile queries (p50/p95/p99/max) for the layers that
//     open no span: sci's accesses and flow's transfers.
//   - A Trace records spans (StartSpan/End with parent/child links, so a
//     rendezvous send or an OSC epoch shows up as one nested tree),
//     timestamped in virtual time. A span is the one record of an mpi or
//     osc interval, and the trace is where cost shows by protocol path
//     (direct PIO pack vs. pack-and-send, direct one-sided vs. emulation,
//     remote-put Gets). Traces export to Chrome trace-event JSON (loadable
//     in chrome://tracing or Perfetto) together with the flight recorder's
//     events as instants, and aggregate into per-category latency/byte
//     summaries.
//   - The flight recorder (package flight) is the one event log: every
//     protocol and fault event is a typed, fixed-size record there.
//
// A registry, flight recorder or trace belongs to one run at a time, like
// an engine: only the goroutine running that run (the engine's, on which
// its processes take turns, or the caller's before and after) touches it,
// so none of them locks. Runs side by side each take their own; the
// sharded torus gives each shard's flow network a histogram of its own and
// merges them after the run.
//
// Everything is nil-safe: a nil *Registry hands out nil collectors, and
// nil collectors, nil *Trace and nil *Span are no-ops that allocate
// nothing, so disabled observability costs nothing on the hot paths
// (asserted by alloc_test.go).
package obs

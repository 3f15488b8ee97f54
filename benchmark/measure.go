package main

import (
	"bytes"
	"math"
	"runtime"
	"syscall"
	"time"

	"scimpich"
)

// processStart is taken as early as the worker can take it; set-up time is
// measured from here.
var processStart = time.Now()

// claim is one EXPERIMENTS.md statement a workload's rows can decide.
type claim struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// repResult is what one repetition (one worker process) reports.
type repResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Traced   bool   `json:"traced"`

	// Ops is the number of timed operations, Failed those whose result was
	// wrong (see README, "what counts as failed").
	Ops    int64 `json:"ops"`
	Failed int64 `json:"failed"`

	SetupS            float64 `json:"setup_s"`
	WallNS            int64   `json:"wall_ns"`
	Mallocs           uint64  `json:"mallocs"`
	AllocBytes        uint64  `json:"alloc_bytes"`
	RetainedHeapBytes uint64  `json:"retained_heap_bytes"`
	CPUNS             int64   `json:"cpu_ns"`

	// Virtual-time results: a deterministic function of workload, seed and
	// scale, compared bit for bit across repetitions.
	Events            uint64             `json:"events"`
	VirtLatencyUS     float64            `json:"virt_latency_us"`
	VirtTailUS        float64            `json:"virt_tail_us"`
	VirtTailPct       float64            `json:"virt_tail_percentile"`
	VirtTailSamples   int                `json:"virt_tail_samples"`
	VirtBandwidthMiBs float64            `json:"virt_bandwidth_mibs"`
	Rows              map[string]float64 `json:"rows,omitempty"`
	Claims            []claim            `json:"claims,omitempty"`

	// Layer holds the per-layer metrics of a traced repetition.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// env is what a workload sees of the harness: its inputs (seed, scale), the
// timed-segment clock, and the span recorder of a traced repetition.
type env struct {
	seed    uint64
	scale   float64 // multiplies every operation count; 1 is the full size
	claims  bool    // also run the untimed model-claim phase
	corrupt bool    // damage every result before it is compared (smoke test)
	tr      *tracer // nil unless this is the traced repetition

	res repResult

	finished bool
	segOpen  bool
	segStart time.Time
	segMem   runtime.MemStats
	segCPU   time.Duration
	lastEnd  time.Time
	allOps   int64 // warm-up and timed operations of the measured worlds

	// Collector activity from the first timed segment to the end of the
	// last, for the traced repetition's runtime.* metrics.
	gcSeen     bool
	gcCycles   uint32
	gcPauseNS  uint64
	peakRSSKiB int64 // at the end of the last timed segment's workload
}

func newEnv(workload string, seed uint64, scale float64) *env {
	return &env{seed: seed, scale: scale, res: repResult{
		Workload: workload, Seed: seed,
		Rows: map[string]float64{},
	}}
}

// n scales a full-size operation count, never below one.
func (e *env) n(full int) int {
	return max(1, int(math.Round(float64(full)*e.scale)))
}

// warm is the warm-up share of a timed count: 5 %, at least one.
func warm(timed int) int { return max(1, timed/20) }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// begin opens a timed segment. Everything the worker did before the first
// segment, and between segments, is set-up.
func (e *env) begin() {
	if e.segOpen {
		panic("benchmark: timed segment already open")
	}
	e.segOpen = true
	e.tr.startProfile()
	runtime.ReadMemStats(&e.segMem)
	if !e.gcSeen {
		e.gcSeen = true
		e.gcCycles, e.gcPauseNS = e.segMem.NumGC, e.segMem.PauseTotalNs
	}
	e.segCPU = cpuTime()
	e.segStart = time.Now()
}

// end closes the timed segment and credits it with ops operations.
func (e *env) end(ops int64) {
	now := time.Now()
	if !e.segOpen {
		panic("benchmark: no timed segment open")
	}
	e.segOpen = false
	cpu := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.res.WallNS += now.Sub(e.segStart).Nanoseconds()
	e.res.CPUNS += (cpu - e.segCPU).Nanoseconds()
	e.res.Mallocs += ms.Mallocs - e.segMem.Mallocs
	e.res.AllocBytes += ms.TotalAlloc - e.segMem.TotalAlloc
	e.res.Ops += ops
	e.allOps += ops
	e.lastEnd = now
}

// finish closes the measurement: set-up is the wall time up to the end of
// the last timed segment that was not inside a segment, and the retained
// heap is read after two collections. A workload with an untimed claim
// phase calls it before that phase (its inputs are then still referenced
// and part of the retained heap); later calls do nothing.
func (e *env) finish() {
	if e.finished {
		return
	}
	e.finished = true
	e.tr.stopProfile()
	e.res.SetupS = (e.lastEnd.Sub(processStart) - time.Duration(e.res.WallNS)).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.gcCycles, e.gcPauseNS = ms.NumGC-e.gcCycles, ms.PauseTotalNs-e.gcPauseNS
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		e.peakRSSKiB = ru.Maxrss // Linux reports KiB
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	e.res.RetainedHeapBytes = ms.HeapAlloc
}

// tracerFor returns the span recorder of a world: the repetition's tracer
// for a measured world, nil (which records nothing) for a warm-up or claim
// world and in an untraced repetition.
func (e *env) tracerFor(measured bool) *tracer {
	if measured {
		return e.tr
	}
	return nil
}

// buildWorld constructs a fabric and a world for cfg under a build span. A
// measured world of the traced repetition gets the registry, tracer and
// flight recorder wired into its configuration first.
func (e *env) buildWorld(cfg scimpich.Config, measured bool) (scimpich.Fabric, *scimpich.World) {
	tr := e.tracerFor(measured)
	tr.attach(&cfg)
	b := tr.host(spBuild, 0)
	f := scimpich.NewFabric(cfg)
	w := scimpich.NewWorldOn(f, cfg)
	tr.doneHost(b, 0)
	return f, w
}

// same compares a result with its reference. In corrupt mode it first
// damages the result, so the smoke test can show that the check can fail.
func (e *env) same(got, want []byte) bool {
	if e.corrupt && len(got) > 0 {
		got[len(got)/2] ^= 0x5A
	}
	return bytes.Equal(got, want)
}

// setVirt fills the virtual-time results from per-operation samples.
func (e *env) setVirt(latencyNS float64, samples []int64, bytes int64, bwNS int64) {
	e.res.VirtLatencyUS = latencyNS / 1e3
	tail, pct := tailOf(samples)
	e.res.VirtTailUS = float64(tail) / 1e3
	e.res.VirtTailPct = pct
	e.res.VirtTailSamples = len(samples)
	if bwNS > 0 {
		e.res.VirtBandwidthMiBs = mibs(bytes, bwNS)
	}
}

func mibs(bytes, ns int64) float64 {
	return float64(bytes) / (float64(ns) / 1e9) / (1 << 20)
}

func (e *env) claim(name string, ok bool, detail string) {
	e.res.Claims = append(e.res.Claims, claim{Name: name, OK: ok, Detail: detail})
}

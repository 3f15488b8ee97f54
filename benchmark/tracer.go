package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"scimpich"
	"scimpich/internal/bufpool"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/trace"
)

// spanKind names a span; the names are the keys of the trace file and of
// the span-derived per-layer metrics.
type spanKind uint8

const (
	spOp    spanKind = iota // one benchmark operation; parent of the calls inside it
	spBuild                 // fabric + world construction
	spRun                   // one whole world or torus run
	spSend
	spRecv
	spBarrier
	spAllreduce4k
	spAllreduce2m
	spPutShared
	spPutPrivate
	spGetShared
	spGetPrivate
	spAccShared
	spFence
	spRmemBase
	spRmemChurn
	spKinds
)

var spanNames = [spKinds]string{
	"op", "build", "run", "mpi.send", "mpi.recv", "mpi.barrier",
	"mpi.allreduce.4k", "mpi.allreduce.2m",
	"osc.put.shared", "osc.put.private", "osc.get.shared", "osc.get.private",
	"osc.acc.shared", "osc.fence", "rmem.run.base", "rmem.run.churn",
}

// maxSpans bounds the spans kept for the trace file; the per-kind
// aggregates that feed the metrics cover every span regardless.
const maxSpans = 1 << 16

// span is one finished bracket around a facade call, in both clocks. Wall
// times are nanoseconds since the worker started; virtual times are the
// simulation clock of the world the call ran in (0 for host-side spans,
// which have no simulated process).
type span struct {
	Kind   spanKind
	Parent int32 // index of the enclosing op span, -1 if none
	Op     int64
	Wall0  int64
	Wall1  int64
	Virt0  int64
	Virt1  int64
}

type spanAgg struct {
	n, wall, virt int64
	hist          obs.Histogram // wall ns
}

// tracer is the state of the traced repetition: the observability sinks the
// measured worlds write into, the benchmark's own spans, and the CPU
// profile. Every method is a no-op on a nil tracer, which is what an
// untraced repetition passes around.
type tracer struct {
	reg   *obs.Registry
	otr   *obs.Trace
	fl    *flight.Recorder
	pool0 bufpool.Stats // bufpool's process-wide counters when tracing began

	spans   []span
	dropped int64
	agg     [spKinds]spanAgg
	curOp   int32

	prof     bytes.Buffer
	profOn   bool
	profDone bool
}

func newTracer() *tracer {
	return &tracer{
		reg:   obs.NewRegistry(),
		otr:   obs.NewTrace(maxSpans),
		fl:    flight.New(0),
		pool0: bufpool.Snapshot(),
		spans: make([]span, 0, maxSpans),
		curOp: -1,
	}
}

// attach is the one place that names the types behind Config.Metrics,
// Config.Tracer and Config.Flight.
func (t *tracer) attach(cfg *scimpich.Config) {
	if t == nil {
		return
	}
	cfg.Metrics = t.reg
	cfg.Tracer = trace.FromObs(t.otr)
	cfg.Flight = t.fl
}

// rank0 returns the tracer for rank 0 and nil for every other rank: spans
// are recorded from one simulated rank (and from the host around
// construction), so they nest without a per-rank stack.
func (t *tracer) rank0(c *scimpich.Comm) *tracer {
	if t == nil || c.Rank() != 0 {
		return nil
	}
	return t
}

// openSpan is a started span, held by value by the code it brackets.
type openSpan struct {
	idx   int32 // slot in tracer.spans, -1 when the file is full
	kind  spanKind
	wall0 time.Time
	virt0 time.Duration
}

func (t *tracer) open(kind spanKind, op int64, virt time.Duration) openSpan {
	s := openSpan{idx: -1, kind: kind, virt0: virt}
	if len(t.spans) < cap(t.spans) {
		s.idx = int32(len(t.spans))
		t.spans = append(t.spans, span{Kind: kind, Parent: t.curOp, Op: op, Virt0: int64(virt)})
	} else {
		t.dropped++
	}
	s.wall0 = time.Now()
	return s
}

// op opens the span of one benchmark operation on the calling rank.
func (t *tracer) op(c *scimpich.Comm, id int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.curOp = -1
	s := t.open(spOp, id, c.WtimeDuration())
	t.curOp = s.idx
	return s
}

// call opens the span of one facade call inside the current operation.
func (t *tracer) call(c *scimpich.Comm, kind spanKind) openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.open(kind, 0, c.WtimeDuration())
}

// host opens a span outside any simulated process (construction, a whole
// run); it has no virtual start.
func (t *tracer) host(kind spanKind, op int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return t.open(kind, op, 0)
}

// done closes a span opened by op or call.
func (t *tracer) done(s openSpan, c *scimpich.Comm) {
	if t == nil {
		return
	}
	t.close(s, time.Now(), c.WtimeDuration())
}

// doneHost closes a host span; virtEnd is the virtual time the bracketed
// run reached (0 for construction).
func (t *tracer) doneHost(s openSpan, virtEnd time.Duration) {
	if t == nil {
		return
	}
	t.close(s, time.Now(), virtEnd)
}

func (t *tracer) close(s openSpan, now time.Time, virt time.Duration) {
	wall := now.Sub(s.wall0).Nanoseconds()
	a := &t.agg[s.kind]
	a.n++
	a.wall += wall
	a.virt += int64(virt - s.virt0)
	a.hist.Observe(wall)
	if s.idx >= 0 {
		sp := &t.spans[s.idx]
		sp.Wall0 = s.wall0.Sub(processStart).Nanoseconds()
		sp.Wall1 = sp.Wall0 + wall
		sp.Virt1 = int64(virt)
	}
	if s.kind == spOp {
		t.curOp = -1
	}
}

// startProfile starts the CPU profile at the first timed segment; it runs
// until stopProfile, so it also covers the warm-up between later segments.
func (t *tracer) startProfile() {
	if t == nil || t.profOn || t.profDone {
		return
	}
	if err := pprof.StartCPUProfile(&t.prof); err == nil {
		t.profOn = true
	}
}

func (t *tracer) stopProfile() {
	if t == nil || !t.profOn {
		return
	}
	pprof.StopCPUProfile()
	t.profOn, t.profDone = false, true
}

// registryTotals reads every counter and gauge value and every histogram's
// sample count out of the registry, through its text dump (the registry has
// no iteration API, and the benchmark may not add one).
func registryTotals(r *obs.Registry) map[string]int64 {
	var buf bytes.Buffer
	r.WriteText(&buf)
	out := map[string]int64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 3 {
			continue
		}
		val := f[2]
		if f[0] == "hist" {
			val = strings.TrimPrefix(val, "count=")
		}
		if v, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[f[1]] = v
		}
	}
	return out
}

// traceFile is the layout of out/trace_<workload>.json.
type traceFile struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Note     string   `json:"note"`
	Kinds    []string `json:"kinds"`
	// Spans rows are [kind, parent, op, wall0_ns, wall1_ns, virt0_ns, virt1_ns].
	Spans        [][7]int64                `json:"spans"`
	DroppedSpans int64                     `json:"dropped_spans"`
	Aggregates   map[string]map[string]any `json:"aggregates"`
	Registry     map[string]int64          `json:"registry"`
	VirtualSpans []obs.CategorySummary     `json:"virtual_span_summary"`
}

// write stores the spans, their aggregates, the registry totals and the CPU
// profile next to each other in dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tf := traceFile{
		Workload: workload, Seed: seed,
		Note: "spans recorded by the benchmark around facade calls of rank 0 and around construction; " +
			"wall ns since worker start, virtual ns of the enclosing world",
		Kinds:        spanNames[:],
		DroppedSpans: t.dropped,
		Aggregates:   map[string]map[string]any{},
		Registry:     registryTotals(t.reg),
		VirtualSpans: t.otr.Summarize(),
	}
	for _, s := range t.spans {
		tf.Spans = append(tf.Spans, [7]int64{int64(s.Kind), int64(s.Parent), s.Op, s.Wall0, s.Wall1, s.Virt0, s.Virt1})
	}
	for k := range t.agg {
		a := &t.agg[k]
		if a.n == 0 {
			continue
		}
		tf.Aggregates[spanNames[k]] = map[string]any{
			"count": a.n, "wall_ns": a.wall, "virt_ns": a.virt,
			"wall_ns_p50": a.hist.Quantile(0.5), "wall_ns_p99": a.hist.Quantile(0.99),
		}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.WriteFile(fmt.Sprintf("%s/trace_%s.json", dir, workload), data, 0o644); err != nil {
		return err
	}
	if t.profDone {
		return os.WriteFile(fmt.Sprintf("%s/cpu_%s.pprof", dir, workload), t.prof.Bytes(), 0o644)
	}
	return nil
}

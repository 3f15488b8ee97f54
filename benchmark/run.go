package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// runRepetition runs one repetition of w in this process: the workload,
// and for the traced repetition the layer replays after it.
func runRepetition(w *workload, seed uint64, scale float64, traced, claims, corrupt bool) (repResult, *tracer) {
	e := newEnv(w.name, seed, scale)
	e.claims, e.corrupt = claims, corrupt
	if traced {
		e.tr = newTracer()
		e.res.Traced = true
	}
	// The engines the workloads drive are single-threaded; a second P only
	// adds cross-CPU goroutine wake-ups, which on a small VM are the largest
	// source of run-to-run noise (12 % -> 3 % on the ping-pong). The replays
	// get every CPU back: two of them run the sharded engine.
	procs := runtime.GOMAXPROCS(1)
	w.run(e)
	e.finish()
	runtime.GOMAXPROCS(procs)
	if e.tr != nil {
		e.res.Layer = e.tr.layerMetrics(e, layerReplays())
	}
	return e.res, e.tr
}

// A runner runs one repetition of a workload somewhere and returns its
// result. The commands use spawn; the smoke test runs in process.
type runner func(w *workload, seed uint64, scale float64, traced, claims bool) (repResult, error)

// spawn returns the runner that gives every repetition a fresh worker
// process (this binary again) and waits for it: a finished world leaves
// goroutines and heap behind, so repetitions that share a process drift.
// The traced repetition writes its trace and profile into out.
func spawn(out string) runner {
	return func(w *workload, seed uint64, scale float64, traced, claims bool) (res repResult, err error) {
		exe, err := os.Executable()
		if err != nil {
			return res, err
		}
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(exe, "-worker", "-workload", w.name,
			"-seed", strconv.FormatUint(seed, 10), "-scale", strconv.FormatFloat(scale, 'g', -1, 64),
			"-trace", trace, "-claims="+strconv.FormatBool(claims), "-out", out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output() // waits for the worker to end
		if err == nil {
			err = json.Unmarshal(stdout, &res)
		}
		if err != nil {
			err = fmt.Errorf("worker %s: %w", w.name, err)
		}
		return res, err
	}
}

// endToEndOf derives the end-to-end metrics of one repetition. The two
// virtual latencies are reported as rates (operations per virtual second),
// so that every end-to-end metric is "a number that is never 0".
func endToEndOf(r repResult) map[string]float64 {
	ops := float64(r.Ops)
	return map[string]float64{
		"setup_s":             r.SetupS,
		"wall_ns_per_op":      float64(r.WallNS) / ops,
		"allocs_per_op":       float64(r.Mallocs) / ops,
		"alloc_bytes_per_op":  float64(r.AllocBytes) / ops,
		"retained_heap_mb":    float64(r.RetainedHeapBytes) / (1 << 20),
		"virt_ops_per_s":      1e6 / r.VirtLatencyUS,
		"virt_tail_ops_per_s": 1e6 / r.VirtTailUS,
		"virt_bandwidth_mibs": r.VirtBandwidthMiBs,
	}
}

// summary is one metric over the repetitions of a run.
type summary struct {
	Unit   string    `json:"unit"`
	Gate   bool      `json:"gate"` // an end-to-end metric of /BENCHMARK.json, with a bound
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// workloadResult is one workload's section of result.json.
type workloadResult struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Metrics holds the end-to-end metrics (Gate) and the wall clock.
	Metrics map[string]summary `json:"metrics"`
	// The virtual-time results in the units the paper uses, beside the
	// rates above.
	VirtLatencyUS   float64 `json:"virt_latency_us"`
	VirtTailUS      float64 `json:"virt_tail_us"`
	VirtTailPct     float64 `json:"virt_tail_percentile"`
	VirtTailSamples int     `json:"virt_tail_samples"`

	Attempted         int64   `json:"ops_attempted"`
	Failed            int64   `json:"ops_failed"`
	OpsFailedShare    float64 `json:"ops_failed_share"`
	ModelClaimsFailed int     `json:"model_claims_failed"`
	Claims            []claim `json:"claims"`
	Deterministic     bool    `json:"virtual_results_identical_across_repetitions"`

	Rows  map[string]float64 `json:"rows,omitempty"`
	Layer map[string]float64 `json:"per_layer,omitempty"`

	Repetitions []repResult `json:"repetitions"`
	Traced      *repResult  `json:"traced_repetition,omitempty"`
}

func (w *workloadResult) correct() bool {
	return w.Failed == 0 && w.ModelClaimsFailed == 0 && w.Deterministic
}

// virtualPart is what must be bit-identical across repetitions.
func virtualPart(r repResult) []any {
	return []any{r.Ops, r.Failed, r.Events, r.VirtLatencyUS, r.VirtTailUS, r.VirtTailPct,
		r.VirtTailSamples, r.VirtBandwidthMiBs}
}

// sameVirtual compares the virtual-time results of two repetitions: the
// headline numbers and every row both report (the first repetition has
// the claim phase's rows on top).
func sameVirtual(a, b repResult) bool {
	for k, v := range a.Rows {
		if w, ok := b.Rows[k]; ok && w != v {
			return false
		}
	}
	return reflect.DeepEqual(virtualPart(a), virtualPart(b))
}

// runWorkload runs reps untraced repetitions of a workload, one worker
// process at a time, and then (traced) the traced repetition. Only the
// first repetition and the traced one run the untimed claim phase.
func runWorkload(w *workload, seed uint64, scale float64, reps int, traced bool, run runner) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Why: w.why, Deterministic: true, Metrics: map[string]summary{}}
	for i := 0; i < reps; i++ {
		r, err := run(w, seed, scale, false, i == 0)
		if err != nil {
			return nil, err
		}
		res.Repetitions = append(res.Repetitions, r)
	}
	first := res.Repetitions[0]
	for i, r := range res.Repetitions {
		if !sameVirtual(r, first) {
			res.Deterministic = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: repetition %d differs in its virtual-time results:\n  %v\n  %v\n",
				w.name, i, virtualPart(r), virtualPart(first))
		}
		res.Attempted += r.Ops
		res.Failed += r.Failed
	}
	res.VirtLatencyUS, res.VirtTailUS = first.VirtLatencyUS, first.VirtTailUS
	res.VirtTailPct, res.VirtTailSamples = first.VirtTailPct, first.VirtTailSamples
	res.Rows, res.Claims = first.Rows, first.Claims

	values := map[string][]float64{}
	for _, r := range res.Repetitions {
		for k, v := range endToEndOf(r) {
			values[k] = append(values[k], v)
		}
	}
	for _, m := range reported {
		q1, med, q3 := quartiles(values[m.Name])
		res.Metrics[m.Name] = summary{Unit: m.Unit, Gate: m.Name != wallMetric.Name, Median: med, Q1: q1, Q3: q3, N: len(values[m.Name]), Values: values[m.Name]}
	}

	if traced {
		r, err := run(w, seed, scale, true, true)
		if err != nil {
			return nil, err
		}
		if !sameVirtual(r, first) {
			res.Deterministic = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: the traced repetition differs in its virtual-time results:\n  %v\n  %v\n",
				w.name, virtualPart(r), virtualPart(first))
		}
		res.Attempted += r.Ops
		res.Failed += r.Failed
		res.Traced = &r
		res.Layer = r.Layer
		untraced := res.Metrics[wallMetric.Name].Median
		res.Layer[wallMetric.Name] = untraced
		res.Layer["obs.trace_overhead_share"] = endToEndOf(r)[wallMetric.Name]/untraced - 1
		res.Claims = r.Claims
	}
	for _, c := range res.Claims {
		if !c.OK {
			res.ModelClaimsFailed++
		}
	}
	res.OpsFailedShare = float64(res.Failed) / float64(res.Attempted)
	if res.Layer != nil {
		res.Layer["check.ops_failed"] = float64(res.Failed)
		res.Layer["check.model_claims_failed"] = float64(res.ModelClaimsFailed)
	}
	return res, nil
}

// print writes every metric of the workload by name, with its unit.
func (w *workloadResult) print() {
	fmt.Printf("== %s: %d repetitions, %d operations attempted, %d failed\n", w.Name, len(w.Repetitions), w.Attempted, w.Failed)
	for _, m := range reported {
		s := w.Metrics[m.Name]
		fmt.Printf("%-18s %-22s %16.6g %-6s (q1 %.6g, q3 %.6g, n=%d, spread %.2f%%)\n",
			w.Name, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N, 100*spread(s.Values))
	}
	fmt.Printf("%-18s %-22s %16.6g %-6s\n", w.Name, "virt_latency_us", w.VirtLatencyUS, "us")
	fmt.Printf("%-18s %-22s %16.6g %-6s (p%g of %d samples)\n", w.Name, "virt_tail_us", w.VirtTailUS, "us", w.VirtTailPct, w.VirtTailSamples)
	fmt.Printf("%-18s %-22s %16.6g %-6s\n", w.Name, "ops_failed_share", w.OpsFailedShare, "ratio")
	fmt.Printf("%-18s %-22s %16d %-6s\n", w.Name, "model_claims_failed", w.ModelClaimsFailed, "count")
	for _, c := range w.Claims {
		verdict := "holds"
		if !c.OK {
			verdict = "FAILS"
		}
		fmt.Printf("%-18s claim %s: %s (%s)\n", w.Name, verdict, c.Name, c.Detail)
	}
	printSorted := func(kind string, m map[string]float64, unit func(string) string) {
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Printf("%-18s %s %-40s %16.6g %s\n", w.Name, kind, k, m[k], unit(k))
		}
	}
	printSorted("row  ", w.Rows, unitFromName)
	units := map[string]string{}
	for _, s := range layerSpecs() {
		units[s.Name] = s.Unit
	}
	printSorted("layer", w.Layer, func(k string) string {
		if u, ok := units[k]; ok {
			return u
		}
		return unitFromName(k)
	})
}

// unitFromName reads the unit of a row or a per-kind span metric off its
// name, which carries it by construction.
func unitFromName(name string) string {
	for _, u := range []struct{ mark, unit string }{
		{"_mibs", "MiB/s"}, {"virt_us", "us"}, {"_us", "us"}, {"wall_ns", "ns"}, {"_ns", "ns"},
		{"_per_s", "1/s"}, {"_share", "ratio"},
	} {
		if strings.Contains(name, u.mark) {
			return u.unit
		}
	}
	return "count"
}

// resultLine is the last line of a -workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain runs one workload and ends with the one-line JSON result:
// untraced, the end-to-end metrics as medians over the repetitions; traced,
// the declared per-layer metrics of the traced repetition (two untraced
// repetitions beside it give the baseline of the tracing overhead).
func driverMain(name string, seed uint64, scale float64, traced bool, out string) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	reps := repetitions
	if traced {
		reps = 2
	}
	res, err := runWorkload(w, seed, scale, reps, traced, spawn(out))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	res.print()
	if !res.Deterministic {
		return 1
	}
	line := resultLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range layerSpecs() {
			v, ok := res.Layer[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "benchmark: %s: per-layer metric %s was not produced\n", name, m.Name)
				return 1
			}
			line.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = metricValue{res.Metrics[m.Name].Median, m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(data))
	return 0
}

// resultFile is out/result.json.
type resultFile struct {
	Seed        uint64            `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Repetitions int               `json:"repetitions"`
	NCPU        int               `json:"ncpu"`
	GOMAXPROCS  int               `json:"gomaxprocs"`
	GOGC        string            `json:"gogc"`
	GoVersion   string            `json:"go_version"`
	GitCommit   string            `json:"git_commit,omitempty"`
	Workloads   []*workloadResult `json:"workloads"`
}

// allMain is the one command: every workload, five untraced repetitions and
// the traced one, everything printed and written to out/result.json.
func allMain(seed uint64, scale float64, out string) int {
	file := resultFile{
		Seed: seed, Seconds: scale * runSeconds, Repetitions: repetitions,
		NCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		GOGC: "100",
	}
	if v := os.Getenv("GOGC"); v != "" {
		file.GOGC = v
	}
	if commit, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		file.GitCommit = strings.TrimSpace(string(commit))
	}
	ok := true
	for i := range workloads {
		res, err := runWorkload(&workloads[i], seed, scale, repetitions, true, spawn(out))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		res.print()
		ok = ok && res.correct()
		file.Workloads = append(file.Workloads, res)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(out, 0o755); err == nil {
			err = os.WriteFile(filepath.Join(out, "result.json"), append(data, '\n'), 0o644)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("wrote %s\n", filepath.Join(out, "result.json"))
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: some operations failed, a model claim does not hold, or virtual-time results differ between repetitions")
		return 1
	}
	return 0
}

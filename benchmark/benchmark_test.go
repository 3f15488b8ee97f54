package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// inProcess is the smoke test's runner: same code as a worker, without the
// process boundary.
func inProcess(w *workload, seed uint64, scale float64, traced, claims bool) (repResult, error) {
	res, _ := runRepetition(w, seed, scale, traced, claims, false)
	return res, nil
}

// TestSmoke runs every workload at 1/100 scale: two untraced repetitions
// and the traced one must agree on the virtual-time results, emit every
// metric /BENCHMARK.json declares, verify every operation, and decide every
// model claim; a damaged result must be counted as failed.
func TestSmoke(t *testing.T) {
	replayBudget = 200 * time.Microsecond
	const scale, seed = 0.01, 7

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Errorf("/BENCHMARK.json differs from `benchmark spec`; regenerate it")
	}
	var spec struct {
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []metricSpec   `json:"end_to_end"`
		PerLayer  []metricSpec   `json:"per_layer"`
	}
	if err := json.Unmarshal(committed, &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

	for _, ws := range spec.Workloads {
		w := findWorkload(ws.Name)
		if w == nil {
			t.Fatalf("declared workload %s does not exist", ws.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, seed, scale, 2, true, inProcess)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deterministic {
				t.Errorf("virtual-time results differ between repetitions")
			}
			if res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			}
			for _, c := range res.Claims {
				if !c.OK {
					t.Errorf("claim does not hold: %s (%s)", c.Name, c.Detail)
				}
			}
			for _, m := range spec.EndToEnd {
				s, ok := res.Metrics[m.Name]
				if !name.MatchString(m.Name) || !ok || !finite(s.Median) || s.Median == 0 {
					t.Errorf("end-to-end metric %q: emitted %v, median %v", m.Name, ok, s.Median)
				}
			}
			for _, m := range spec.PerLayer {
				v, ok := res.Layer[m.Name]
				if strings.HasPrefix(m.Name, "prof.share_") && !ok {
					continue // a few milliseconds of timed phase may draw no CPU sample
				}
				if !name.MatchString(m.Name) || !ok || !finite(v) {
					t.Errorf("per-layer metric %q: emitted %v, value %v", m.Name, ok, v)
				}
			}
			for k, v := range res.Layer {
				if !name.MatchString(k) || !finite(v) {
					t.Errorf("per-layer detail metric %q = %v", k, v)
				}
			}
			// The check can fail: damage every result before it is compared.
			if bad, _ := runRepetition(w, seed, scale, false, false, true); bad.Failed == 0 {
				t.Errorf("a corrupted result was not counted as a failed operation")
			}
		})
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, med, q3)
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{3: 100, 19: 100, 20: 50, 100: 90, 1000: 99, 150000: 99.99} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

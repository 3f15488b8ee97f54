package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareMain prints, per workload and end-to-end metric, both medians and
// quartiles, the relative difference of B against A, and a verdict against
// the metric's bound: WORSE beyond the bound, UNRESOLVED when either side's
// own spread is wider than the bound, PASS otherwise. Virtual-time metrics
// of equal seeds must be equal; a difference there is a model change and is
// WORSE or BETTER, never noise. Exit status 1 if anything is WORSE, except
// the wall clock, whose verdict is advisory (see wallMetric).
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readResult(args[0])
	if err == nil {
		var b *resultFile
		if b, err = readResult(args[1]); err == nil {
			return compare(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compare(a, b *resultFile) int {
	fmt.Printf("A: seed %d, commit %s   B: seed %d, commit %s\n", a.Seed, a.GitCommit, b.Seed, b.GitCommit)
	fmt.Printf("%-18s %-20s %14s %14s %9s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "A iqr", "B iqr", "verdict")
	worse := 0
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, w := range b.Workloads {
			if w.Name == wa.Name {
				wb = w
			}
		}
		if wb == nil {
			fmt.Printf("%-18s missing from B\n", wa.Name)
			worse++
			continue
		}
		for _, m := range reported {
			sa, sb := wa.Metrics[m.Name], wb.Metrics[m.Name]
			rel := (sb.Median - sa.Median) / sa.Median
			loss := rel // positive = B is worse
			if m.Better == "higher" {
				loss = -rel
			}
			spreadA, spreadB := spread(sa.Values), spread(sb.Values)
			verdict := "PASS"
			switch {
			case exactForSeed[m.Name] && a.Seed == b.Seed && a.Seconds == b.Seconds:
				if sa.Median != sb.Median {
					verdict = "BETTER (model changed)"
					if loss > 0 {
						verdict = "WORSE (model changed)"
					}
				}
			case loss > m.Bound:
				verdict = "WORSE"
			case math.Max(spreadA, spreadB) > m.Bound:
				verdict = "UNRESOLVED"
			}
			if m.Name == wallMetric.Name {
				verdict += " (advisory)"
			} else if verdict[0] == 'W' {
				worse++
			}
			fmt.Printf("%-18s %-20s %14.6g %14.6g %+8.2f%% %6.2f%% %6.2f%%  %s\n",
				wa.Name, m.Name, sa.Median, sb.Median, 100*rel, 100*spreadA, 100*spreadB, verdict)
		}
		if wb.Failed > wa.Failed || wb.ModelClaimsFailed > wa.ModelClaimsFailed {
			fmt.Printf("%-18s ops failed %d -> %d, model claims failed %d -> %d  WORSE\n",
				wa.Name, wa.Failed, wb.Failed, wa.ModelClaimsFailed, wb.ModelClaimsFailed)
			worse++
		}
	}
	if worse > 0 {
		fmt.Printf("%d WORSE\n", worse)
		return 1
	}
	return 0
}

package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// CategorySummary aggregates the completed spans of one category: how
// many, how many bytes they moved, and the latency distribution.
type CategorySummary struct {
	Category string
	Spans    int64
	Bytes    int64
	Total    time.Duration // summed span durations
	P50      time.Duration
	P95      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// catAgg accumulates one category while summarizing.
type catAgg struct {
	bytes int64
	hist  *Histogram
}

// Summarize aggregates a live trace's completed spans per category,
// sorted by category name.
func (t *Trace) Summarize() []CategorySummary {
	if t == nil {
		return nil
	}
	aggs := make(map[string]*catAgg)
	for _, s := range t.Spans() {
		a := aggs[s.Category]
		if a == nil {
			a = &catAgg{hist: &Histogram{}}
			aggs[s.Category] = a
		}
		a.bytes += s.Bytes
		a.hist.ObserveDuration(s.Duration())
	}
	return finishSummaries(aggs)
}

// SummarizeChrome aggregates the complete ("X") events of a parsed Chrome
// trace per category (tracestat's core).
func SummarizeChrome(evs []ChromeEvent) []CategorySummary {
	aggs := make(map[string]*catAgg)
	for _, e := range evs {
		if e.Ph != "X" {
			continue
		}
		cat := e.Cat
		if cat == "" {
			cat = "(uncategorized)"
		}
		a := aggs[cat]
		if a == nil {
			a = &catAgg{hist: &Histogram{}}
			aggs[cat] = a
		}
		if b, ok := e.Args["bytes"]; ok {
			if f, ok := b.(float64); ok {
				a.bytes += int64(f)
			}
		}
		// µs back to ns, rounded: truncating reads 4007 ns back as 4006.
		a.hist.Observe(int64(math.Round(e.Dur * 1e3)))
	}
	return finishSummaries(aggs)
}

func finishSummaries(aggs map[string]*catAgg) []CategorySummary {
	var out []CategorySummary
	for cat, a := range aggs {
		s := a.hist.Snapshot()
		out = append(out, CategorySummary{
			Category: cat,
			Spans:    s.Count,
			Bytes:    a.bytes,
			Total:    time.Duration(s.Sum),
			P50:      time.Duration(s.P50),
			P95:      time.Duration(s.P95),
			P99:      time.Duration(s.P99),
			Max:      time.Duration(s.Max),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Category < out[j].Category })
	return out
}

// WriteSummaries renders per-category summaries as an aligned text table.
func WriteSummaries(w io.Writer, sums []CategorySummary) {
	if len(sums) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	fmt.Fprintf(w, "%-16s %8s %12s %12s %10s %10s %10s %10s\n",
		"category", "spans", "bytes", "total", "p50", "p95", "p99", "max")
	for _, s := range sums {
		fmt.Fprintf(w, "%-16s %8d %12d %12v %10v %10v %10v %10v\n",
			s.Category, s.Spans, s.Bytes, s.Total.Round(time.Microsecond),
			s.P50.Round(time.Nanosecond), s.P95.Round(time.Nanosecond),
			s.P99.Round(time.Nanosecond), s.Max.Round(time.Nanosecond))
	}
}

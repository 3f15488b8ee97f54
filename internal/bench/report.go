// Package bench contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation, the table that lists them
// (Suites) and the two renderers they share (Figure, Table). Each driver
// returns structured results; cmd/repro prints any subset of the table,
// cmd/benchjson writes the rows that are committed artefacts, and
// BenchmarkSuites runs each row as a testing.B sub-benchmark of its host
// cost.
package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
	"time"

	"scimpich/internal/obs"
)

// MiB is one mebibyte.
const MiB = 1 << 20

// Series is one labelled curve of a figure: y-values indexed like the
// figure's x-axis points.
type Series struct {
	Label  string
	Values []float64
}

// Figure is a set of series over a common x-axis.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
}

// Print renders the figure as an aligned text table.
func (f *Figure) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", f.Title)
	fmt.Fprintf(w, "# y: %s\n", f.YLabel)
	fmt.Fprintf(w, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(w, " %14s", s.Label)
	}
	fmt.Fprintln(w)
	for i, x := range f.X {
		fmt.Fprintf(w, "%-12s", formatX(x))
		for _, s := range f.Series {
			if i < len(s.Values) && s.Values[i] != 0 {
				fmt.Fprintf(w, " %14.2f", s.Values[i])
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV(w io.Writer) {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Label)
	}
	fmt.Fprintln(w, strings.Join(cols, ","))
	for i, x := range f.X {
		row := []string{formatX(x)}
		for _, s := range f.Series {
			v := 0.0
			if i < len(s.Values) {
				v = s.Values[i]
			}
			row = append(row, fmt.Sprintf("%.3f", v))
		}
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

// curves builds the figure of a sweep: one x-axis point per row, one series
// per label; point returns a row's x and its value on each series.
func curves[R any](title, xlabel, ylabel string, labels []string, rows []R, point func(R) (x int64, ys []float64)) *Figure {
	f := &Figure{Title: title, XLabel: xlabel, YLabel: ylabel, Series: make([]Series, len(labels))}
	for i, l := range labels {
		f.Series[i].Label = l
	}
	for _, r := range rows {
		x, ys := point(r)
		f.X = append(f.X, float64(x))
		for i, y := range ys {
			f.Series[i].Values = append(f.Series[i].Values, y)
		}
	}
	return f
}

// Table is a titled grid of formatted cells: the renderer of every result
// that is not a set of curves over one axis. It has one form, aligned
// columns, also under -csv (as the tables always had).
type Table struct {
	Title  string
	Header string   // tab-separated column names
	Rows   []string // tab-separated cells
}

// Add appends one row; format separates the cells with tabs.
func (t *Table) Add(format string, args ...any) {
	t.Rows = append(t.Rows, fmt.Sprintf(format, args...))
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "# %s\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, t.Header)
	for _, r := range t.Rows {
		fmt.Fprintln(tw, r)
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// text is a block already rendered: the fixed-width matrices of the
// artefact suites.
type text string

func (t text) Print(w io.Writer) { io.WriteString(w, string(t)) }

func formatX(x float64) string {
	if x == float64(int64(x)) {
		v := int64(x)
		switch {
		case v >= 1<<20 && v%(1<<20) == 0:
			return fmt.Sprintf("%dMi", v>>20)
		case v >= 1<<10 && v%(1<<10) == 0:
			return fmt.Sprintf("%dKi", v>>10)
		default:
			return fmt.Sprintf("%d", v)
		}
	}
	return fmt.Sprintf("%g", x)
}

// Sizes returns the power-of-two sweep [lo, hi].
func Sizes(lo, hi int64) []int64 {
	var out []int64
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

// ToF converts sizes to float64 x-values.
func ToF(sizes []int64) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = float64(s)
	}
	return out
}

// BWMiB converts bytes moved in a duration to MiB/s.
func BWMiB(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / MiB
}

// WriteObsSummary renders the per-category span summary of the ambient
// observability trace — spans, bytes and latency quantiles per protocol
// category — as an aligned table. A no-op while tracing is disabled.
func WriteObsSummary(w io.Writer) {
	if obsTrace == nil {
		return
	}
	sums := obsTrace.Summarize()
	if len(sums) == 0 {
		return
	}
	fmt.Fprintln(w, "# span summary (per category)")
	obs.WriteSummaries(w, sums)
	fmt.Fprintln(w)
}

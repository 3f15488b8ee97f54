// Command tracestat aggregates a Chrome trace-event JSON file (as written
// by the -trace-out flag of the benchmark drivers) into per-category
// tables: span counts, bytes moved, and latency quantiles.
//
// Usage:
//
//	tracestat [-actors] trace.json
//
// Reading "-" aggregates standard input. The input may be the object form
// ({"traceEvents": [...]}) or a bare event array.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"scimpich/internal/obs"
)

func main() {
	actors := flag.Bool("actors", false, "also break the spans down per actor (thread)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracestat [-actors] trace.json")
		os.Exit(2)
	}
	evs, other, err := readTrace(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracestat: %v\n", err)
		os.Exit(1)
	}
	if other.DroppedSpans > 0 || other.DroppedEvents > 0 {
		fmt.Fprintf(os.Stderr,
			"tracestat: warning: trace is truncated: the span ring dropped %d spans and the flight rings %d events before the export\n",
			other.DroppedSpans, other.DroppedEvents)
	}

	spans, instants := 0, 0
	for _, e := range evs {
		switch e.Ph {
		case "X":
			spans++
		case "i", "I":
			instants++
		}
	}
	fmt.Printf("# %s: %d events (%d spans, %d instants)\n\n",
		flag.Arg(0), len(evs), spans, instants)

	fmt.Println("# per category")
	obs.WriteSummaries(os.Stdout, obs.SummarizeChrome(evs))

	if *actors {
		// Thread names arrive as "M" metadata events; fall back to the tid.
		tidName := make(map[int]string)
		for _, e := range evs {
			if e.Ph == "M" && e.Name == "thread_name" {
				if n, ok := e.Args["name"].(string); ok {
					tidName[e.Tid] = n
				}
			}
		}
		byActor := make(map[string][]obs.ChromeEvent)
		for _, e := range evs {
			if e.Ph == "X" {
				name := tidName[e.Tid]
				if name == "" {
					name = fmt.Sprintf("tid%d", e.Tid)
				}
				byActor[name] = append(byActor[name], e)
			}
		}
		names := make([]string, 0, len(byActor))
		for n := range byActor {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("\n# actor %s\n", n)
			obs.WriteSummaries(os.Stdout, obs.SummarizeChrome(byActor[n]))
		}
	}
}

func readTrace(path string) ([]obs.ChromeEvent, obs.ChromeOther, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, obs.ChromeOther{}, err
		}
		defer f.Close()
		r = f
	}
	return obs.ReadChrome(r)
}

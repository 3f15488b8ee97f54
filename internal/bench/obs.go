package bench

import (
	"flag"
	"fmt"
	"io"
	"os"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/sci"
)

// Ambient observability: a cmd binary opts in with ObsFlags, and every
// driver in this package attaches whatever is installed to the clusters and
// interconnects it builds. With nothing installed, instrumenting a config is
// the identity.
var (
	obsTrace   *obs.Trace
	obsFlight  *flight.Recorder
	obsMetrics *obs.Registry
)

// obsFlightCap is the per-actor ring capacity of the ambient flight
// recorder: large enough that a whole experiment sweep's events reach the
// exported timeline; what a ring still evicts is counted in the file.
const obsFlightCap = 1 << 14

// instrument attaches the ambient observability to a cluster config. A
// tracer, recorder or registry the driver already set wins.
func instrument(cfg mpi.Config) mpi.Config {
	if cfg.Tracer == nil {
		cfg.Tracer = obsTrace
	}
	if cfg.Flight == nil {
		cfg.Flight = obsFlight
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsMetrics
	}
	return cfg
}

// instrumentSCI is instrument for the drivers that run the raw
// interconnect without the MPI runtime.
func instrumentSCI(cfg sci.Config) sci.Config {
	if cfg.Flight == nil {
		cfg.Flight = obsFlight
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obsMetrics
	}
	return cfg
}

// ObsFlags registers the -trace-out and -metrics-out flags on the default
// flag set. Giving either flag on the command line enables the ambient
// trace/registry before the drivers run (the flag package invokes the
// callbacks during flag.Parse). The returned finish function writes the
// collected outputs — call it (or defer it) after the benchmarks ran:
// -trace-out produces Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing, or aggregate it with cmd/tracestat) — the spans of the
// ambient trace and, as instants, the events of the ambient flight recorder
// it attaches — plus a per-category span summary on stdout; -metrics-out
// produces the plain-text metrics dump.
func ObsFlags() func() {
	var traceFile, metricsFile string
	flag.Func("trace-out", "write a Chrome trace-event JSON timeline to `file`", func(s string) error {
		traceFile = s
		if obsTrace == nil {
			obsTrace = obs.NewTrace(0)
			obsFlight = flight.New(obsFlightCap)
		}
		return nil
	})
	flag.Func("metrics-out", "write a plain-text metrics dump to `file`", func(s string) error {
		metricsFile = s
		if obsMetrics == nil {
			obsMetrics = obs.NewRegistry()
		}
		return nil
	})
	return func() {
		if traceFile != "" {
			if err := writeFile(traceFile, func(w io.Writer) error {
				return obsTrace.WriteChrome(w, obsFlight)
			}); err != nil {
				fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			}
			WriteObsSummary(os.Stdout)
		}
		if metricsFile != "" {
			if err := writeFile(metricsFile, func(w io.Writer) error {
				obsMetrics.WriteText(w)
				return nil
			}); err != nil {
				fmt.Fprintf(os.Stderr, "metrics-out: %v\n", err)
			}
		}
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package bench

// The BENCH_*.json artifacts of cmd/benchjson: the rows of the suites that
// name a file. Every column in them is a function of the seed and the model
// — virtual time, event counts, bytes, gate verdicts — so the committed
// files regenerate byte-identically and CI diffs them. Wall-clock numbers
// are printed by the Format functions and never written here; the
// repetition-and-compare harness in benchmark/ owns those. See
// docs/PERFORMANCE.md.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
)

// artifact is the envelope the files share. It names the platform but not
// the toolchain, so a runner's Go patch level cannot change the files.
type artifact struct {
	Suite   string `json:"suite"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	Results any    `json:"results"`
}

// part is one suite's rows in a file several suites share.
type part struct {
	Name string `json:"name"`
	Rows any    `json:"rows"`
}

// marshalArtifact renders results as the bytes of file; the envelope is
// named after the file (BENCH_dma.json holds suite "dma").
func marshalArtifact(file string, results any) ([]byte, error) {
	data, err := json.MarshalIndent(artifact{
		Suite:   strings.TrimSuffix(strings.TrimPrefix(file, "BENCH_"), ".json"),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Results: results,
	}, "", "  ")
	return append(data, '\n'), err
}

// ArtifactFiles lists the files the table names, each once, in table order.
func ArtifactFiles() []string {
	var files []string
	for _, s := range Suites {
		if s.File != "" && !slices.Contains(files, s.File) {
			files = append(files, s.File)
		}
	}
	return files
}

// RunArtifact runs every suite that names file, prints its tables to w and
// returns the bytes of the file: the rows themselves where one suite owns
// the file, one named part per suite where several share it. A failed gate
// is returned as the error beside the bytes of the rows measured.
func RunArtifact(file string, sweep Sweep, w io.Writer) ([]byte, error) {
	var parts []part
	var gates error
	for _, s := range Suites {
		if s.File != file {
			continue
		}
		rows, err := s.Run(sweep)
		if err != nil {
			gates = errors.Join(gates, fmt.Errorf("%s: %w", s.Name, err))
		}
		s.Print(w, rows, false)
		parts = append(parts, part{s.Name, rows})
	}
	var results any = parts
	if len(parts) == 1 {
		results = parts[0].Rows
	}
	data, err := marshalArtifact(file, results)
	if err != nil {
		return nil, err
	}
	return data, gates
}

package bench

// The BENCH_*.json artifacts of cmd/benchjson. Every column in them is a
// function of the seed and the model — virtual time, event counts, bytes,
// gate verdicts — so the committed files regenerate byte-identically and
// CI diffs them. Wall-clock numbers are printed by the Format functions
// and never written here; the repetition-and-compare harness in
// benchmark/ owns those. See docs/PERFORMANCE.md.

import (
	"encoding/json"
	"os"
	"runtime"
)

// artifact is the envelope the four suites share. It names the platform but
// not the toolchain, so a runner's Go patch level cannot change the files.
type artifact struct {
	Suite   string `json:"suite"`
	GOOS    string `json:"goos"`
	GOARCH  string `json:"goarch"`
	Results any    `json:"results"`
}

// marshalArtifact renders one suite's rows as the bytes of its file.
func marshalArtifact(suite string, results any) ([]byte, error) {
	data, err := json.MarshalIndent(artifact{
		Suite:   suite,
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		Results: results,
	}, "", "  ")
	return append(data, '\n'), err
}

func writeArtifact(path, suite string, results any) error {
	data, err := marshalArtifact(suite, results)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

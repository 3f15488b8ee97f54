package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"scimpich/internal/allocwin"
)

// runSuite runs one suite and returns its rows as artefact bytes and as
// printed text, tables and CSV.
func runSuite(t *testing.T, s Suite, sweep Sweep) (data []byte, table, csv string) {
	t.Helper()
	rows, err := s.Run(sweep)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	data, err = marshalArtifact(s.File, rows)
	if err != nil {
		t.Fatalf("%s: rows do not marshal: %v", s.Name, err)
	}
	// The engine matrix prints host time beside the rows (never written:
	// the bytes above are equal); pin it so the text can be compared.
	if engine, ok := rows.([]EngineResult); ok {
		for i := range engine {
			engine[i].WallNS = 1
		}
	}
	var tb, cb strings.Builder
	s.Print(&tb, rows, false)
	s.Print(&cb, rows, true)
	return data, tb.String(), cb.String()
}

// TestSuitesDeterministic: every row of the table, at -quick sizes, run
// twice gives equal artefact bytes and equal printed text.
func TestSuitesDeterministic(t *testing.T) {
	for _, s := range Suites {
		data1, table1, csv1 := runSuite(t, s, Sweep{Quick: true})
		data2, table2, csv2 := runSuite(t, s, Sweep{Quick: true})
		if !bytes.Equal(data1, data2) {
			t.Errorf("%s: rows differ between two runs:\n%s\n%s", s.Name, data1, data2)
		}
		if table1 != table2 || csv1 != csv2 {
			t.Errorf("%s: printed text differs between two runs:\n%s\n%s", s.Name, table1, table2)
		}
		if table1 == "" {
			t.Errorf("%s: prints nothing", s.Name)
		}
	}
}

// TestZeroCallRowMarshals: an access as large as the window makes no call;
// the row must be zeros, not the NaN or Inf json.Marshal rejects.
func TestZeroCallRowMarshals(t *testing.T) {
	rows := RunSparse([]int64{SparseWinSize})
	if rows[0].PutSharedLat != 0 || rows[0].GetPrivateBW != 0 {
		t.Fatalf("zero-call row is not zero: %+v", rows[0])
	}
	if _, err := marshalArtifact(PaperFile, rows); err != nil {
		t.Fatal(err)
	}
}

// TestSuiteTableComplete: names are unique, DESIGN.md's per-experiment
// index and the table list the same experiments, and every row that names
// a file is in the committed file of that name, which cmd/benchjson writes
// by looping over ArtifactFiles.
func TestSuiteTableComplete(t *testing.T) {
	byName := map[string]Suite{}
	for _, s := range Suites {
		if _, dup := byName[s.Name]; dup {
			t.Errorf("suite name %q is not unique", s.Name)
		}
		byName[s.Name] = s
		if s.Reproduces == "" || s.Run == nil || s.Print == nil {
			t.Errorf("suite %q is incomplete", s.Name)
		}
	}

	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(design), "## 4. Per-experiment index")
	if !ok {
		t.Fatal("DESIGN.md has no per-experiment index")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	indexed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\| ([a-z0-9]+) \|`).FindAllStringSubmatch(index, -1) {
		indexed[m[1]] = true
		if _, ok := byName[m[1]]; !ok {
			t.Errorf("DESIGN.md indexes experiment %q, which has no row in Suites", m[1])
		}
	}
	for name := range byName {
		if !indexed[name] {
			t.Errorf("suite %q is missing from DESIGN.md's per-experiment index", name)
		}
	}

	for _, file := range ArtifactFiles() {
		data, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Errorf("%s is named by the table but not committed: %v", file, err)
			continue
		}
		var env struct {
			Suite   string
			Results json.RawMessage
		}
		if err := json.Unmarshal(data, &env); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		var owners []string
		for _, s := range Suites {
			if s.File == file {
				owners = append(owners, s.Name)
			}
		}
		if len(owners) == 1 {
			if env.Suite != owners[0] {
				t.Errorf("%s holds suite %q, the table says %q", file, env.Suite, owners[0])
			}
			continue
		}
		var parts []part
		if err := json.Unmarshal(env.Results, &parts); err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		var held []string
		for _, p := range parts {
			held = append(held, p.Name)
		}
		if strings.Join(held, ",") != strings.Join(owners, ",") {
			t.Errorf("%s holds parts %v, the table says %v", file, held, owners)
		}
	}
}

// TestPaperArtifactMatchesCommitted regenerates BENCH_paper.json at the
// default sweeps and compares it with the committed file: the paper's own
// numbers are a byte-identical contract, not a set of thresholds.
func TestPaperArtifactMatchesCommitted(t *testing.T) {
	if testing.Short() || allocwin.RaceEnabled {
		t.Skip("the default sweeps take a few seconds, half a minute under the race detector")
	}
	artifactMatchesCommitted(t, PaperFile)
}

// TestAblationArtifactMatchesCommitted does the same for the ablation row,
// whose gates hold on the committed numbers.
func TestAblationArtifactMatchesCommitted(t *testing.T) {
	artifactMatchesCommitted(t, AblationFile)
}

func artifactMatchesCommitted(t *testing.T, file string) {
	got, err := RunArtifact(file, Sweep{}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../" + file)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s regenerates differently from the committed file; if the model changed on purpose, run `make bench-json` and commit it", file)
	}
	for _, col := range []string{"wall", "NaN", "Inf", `"go"`} {
		if bytes.Contains(got, []byte(col)) {
			t.Errorf("%s carries %q", file, col)
		}
	}
}

// TestAblationGatesCanFail feeds each claim of the ablation row a part that
// violates it: the row's verdict and that claim's gate must be false. The
// row it starts from is the committed one, rounded, and passes.
func TestAblationGatesCanFail(t *testing.T) {
	measured := func() ablationRows {
		return ablationRows{
			Chunk: chunkAblation{Default: 64 << 10, Points: []chunkPoint{
				{32 << 10, 189.2}, {64 << 10, 188.9}, {256 << 10, 170.8}, {chunkBeyondL2, 142.5}}},
			Get: getAblation{DirectMax: 8 << 10, Points: []getPoint{
				{128, 8170, 9390, 8170}, {8 << 10, 523130, 53650, 523130}, {getWinAt, 2092520, 229500, 229500}}},
			WC:  wcAblation{Aligned: 161.9, Misaligned: 7.0, Off: 80.98},
			DMA: dmaAblation{PIO: 164.1, DMA: 81.65, Peak: 85},
			Exchange: exchangeAblation{Clean: exchangeRun{100, 4 << 20, "d"}, Faulted: exchangeRun{103, 4 << 20, "d"},
				Slowdown: 1.03, SendRetries: 1, Duplicates: 10, CheckRetries: 3},
			OneSided: oneSidedAblation{Degradations: 1, TargetOK: true},
		}
	}
	r := measured()
	if !gateAblation(&r) {
		t.Fatalf("the measured row fails its gates: %+v", r)
	}
	// Each violation returns the gate it must turn false.
	for claim, violate := range map[string]func(r *ablationRows) *bool{
		"default chunk 1.7 % below the best": func(r *ablationRows) *bool { r.Chunk.Points[1].MiBs = 186; return &r.Chunk.GateDefaultNearBest },
		"512 KiB chunk 15 % below the best":  func(r *ablationRows) *bool { r.Chunk.Points[3].MiBs = 160; return &r.Chunk.GateBeyondL2Drops },
		"default 8 KiB get is a remote-put": func(r *ablationRows) *bool {
			r.Get.Points[1].DefaultNS = 53650
			return &r.Get.GateDefaultFollowsThreshold
		},
		"remote-put 4.4x at 32 KiB":          func(r *ablationRows) *bool { r.Get.Points[2].DirectNS = 1000000; return &r.Get.GateRemotePutWins },
		"write-combining off as fast as on":  func(r *ablationRows) *bool { r.WC.Off = 161.9; return &r.WC.GateOffHalvesAligned },
		"write-combining off 9x misaligned":  func(r *ablationRows) *bool { r.WC.Misaligned = 9; return &r.WC.GateOffBeatsMisaligned },
		"DMA faster than PIO":                func(r *ablationRows) *bool { r.DMA.PIO = 80; return &r.DMA.GatePIOFaster },
		"DMA over its peak":                  func(r *ablationRows) *bool { r.DMA.DMA = 86; return &r.DMA.GateDMAUnderPeak },
		"faulted exchange, other bytes":      func(r *ablationRows) *bool { r.Exchange.Faulted.Digest = "e"; return &r.Exchange.GateSameBytes },
		"faulted exchange faster than clean": func(r *ablationRows) *bool { r.Exchange.Slowdown = 0.99; return &r.Exchange.GateNoSpeedup },
		"no check retry counted":             func(r *ablationRows) *bool { r.Exchange.CheckRetries = 0; return &r.Exchange.GateRecoveryCounted },
		"revoked view never degraded":        func(r *ablationRows) *bool { r.OneSided.Degradations = 0; return &r.OneSided.GateOneDegradation },
		"degraded put returns an error":      func(r *ablationRows) *bool { r.OneSided.PutError = "lost"; return &r.OneSided.GatePutOK },
		"degraded put leaves wrong bytes":    func(r *ablationRows) *bool { r.OneSided.TargetOK = false; return &r.OneSided.GateTargetOK },
	} {
		r := measured()
		gate := violate(&r)
		if gateAblation(&r) || *gate {
			t.Errorf("%s passed the gates: %+v", claim, r)
		}
	}
}

// BenchmarkSuites runs every row of the table at its default sweep, one
// sub-benchmark per row. Its ns/op is the simulator's host cost of the row;
// the modelled numbers are the rows themselves, which cmd/repro prints and
// cmd/benchjson commits.
func BenchmarkSuites(b *testing.B) {
	for _, s := range Suites {
		b.Run(s.Name, func(b *testing.B) {
			for range b.N {
				if _, err := s.Run(Sweep{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The output formats of the deleted single-purpose drivers, pinned once per
// renderer: a Figure as table and as CSV (cmd/noncontig), a Table
// (cmd/scaling -table2, which is aligned under -csv too). The numbers are
// the parent's, so these also pin Figure 7's first rows and Table 2.
func TestSuiteOutputGolden(t *testing.T) {
	suites, err := Select("fig7,tab2")
	if err != nil || len(suites) != 2 {
		t.Fatalf("Select: %v %v", suites, err)
	}
	if _, err := Select("fig7,nope"); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("unknown suite not refused: %v", err)
	}
	_, fig7, fig7CSV := runSuite(t, suites[0], Sweep{Min: 8, Max: 32})
	_, tab2, tab2CSV := runSuite(t, suites[1], Sweep{})
	for _, c := range []struct{ name, got, want string }{
		{"fig7", fig7, `# Figure 7: non-contiguous transfers, generic vs direct_pack_ff (MiB/s)
# y: MiB/s
blocksize       SCI-generic         SCI-ff     SCI-contig    shm-generic         shm-ff     shm-contig
8                     23.96          20.47         205.53          23.80          85.99         275.44
16                    41.46          88.91         205.53          43.40         150.61         275.44
32                    65.31         124.30         205.53          73.01         235.61         275.44

`},
		{"fig7 -csv", fig7CSV, `blocksize,SCI-generic,SCI-ff,SCI-contig,shm-generic,shm-ff,shm-contig
8,23.964,20.471,205.525,23.802,85.988,275.437
16,41.465,88.906,205.525,43.396,150.613,275.437
32,65.315,124.304,205.525,73.011,235.610,275.437

`},
		{"tab2", tab2, `# Table 2: scalability for different segment utilization levels (166 MHz links, 633 MiB/s nominal)
nodes  1 tr/seg p.node  acc.   8 tr/seg p.node  acc.   load    eff.
4      123.00           492.0  122.55           490.2  77.7%   77.4%
5      123.00           615.0  115.99           579.9  97.2%   91.6%
6      123.00           738.0  97.19            583.2  116.6%  92.1%
7      123.00           861.0  78.30            548.1  136.0%  86.6%
8      123.00           984.0  62.40            499.2  155.5%  78.9%

# Table 2: scalability for different segment utilization levels (200 MHz links, 763 MiB/s nominal)
nodes  1 tr/seg p.node  acc.   8 tr/seg p.node  acc.   load    eff.
4      123.00           492.0  123.00           492.0  64.5%   64.5%
5      123.00           615.0  121.68           608.4  80.6%   79.8%
6      123.00           738.0  116.42           698.5  96.8%   91.6%
7      123.00           861.0  100.89           706.3  112.9%  92.6%
8      123.00           984.0  84.72            677.8  129.0%  88.9%

`},
		{"tab2 -csv", tab2CSV, tab2},
	} {
		if c.got != c.want {
			t.Errorf("%s prints\n%s\nwant\n%s", c.name, c.got, c.want)
		}
	}
}

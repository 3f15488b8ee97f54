package bench

// The ablation row behind BENCH_ablation.json: the design choices DESIGN.md
// §5 and EXPERIMENTS.md quote, each written as a pass/fail comparison (the
// form Carpen-Amarie, Hunold & Träff give datatype performance
// expectations, PAPERS.md) instead of a number to read off a benchmark.
// Every claim is a gate of the row, so cmd/benchjson fails when the model
// stops supporting one:
//
//   - rendezvous chunk below L2 (§3.3.2): the default chunk is within 1 % of
//     the best of the sweep, and a 512 KiB chunk, beyond L2, is more than
//     20 % below it;
//   - large gets become remote-puts (§4.2): the default get is the direct
//     read up to osc's GetDirectMax and the remote-put above it, and at
//     32 KiB the remote-put is at least 5x faster. The measured crossover
//     is recorded beside, ungated (EXPERIMENTS.md, known deviation 6);
//   - write-combining (§4.3): with it off, 256 B strided writes run at half
//     the aligned rate (within 1 %) and at more than 10x the misaligned one;
//   - DMA rendezvous (§6 outlook): PIO beats DMA for a 1 MiB message, and
//     DMA stays below the engine's peak;
//   - a faulted exchange delivers the clean run's bytes, is no faster than
//     the clean run, and counts its recovery: send retries, dropped
//     duplicates and check retries;
//   - a window view revoked mid-run degrades the put exactly once, and the
//     put still returns nil with the right bytes at the target.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
	"scimpich/internal/sci"
)

// AblationFile holds the ablation row.
const AblationFile = "BENCH_ablation.json"

// ablationSeed seeds the fault plans of the two faulted rows.
const ablationSeed = 42

// ablationRows is the row: one part per design choice.
type ablationRows struct {
	Chunk    chunkAblation    `json:"rendezvous_chunk"`
	Get      getAblation      `json:"get_remote_put"`
	WC       wcAblation       `json:"write_combine"`
	DMA      dmaAblation      `json:"dma_rendezvous"`
	Exchange exchangeAblation `json:"faulted_exchange"`
	OneSided oneSidedAblation `json:"faulted_one_sided"`
}

// runAblation measures every part; gateAblation judges them.
func runAblation() ablationRows {
	return ablationRows{
		Chunk:    runChunkAblation(),
		Get:      runGetAblation(),
		WC:       runWCAblation(),
		DMA:      runDMAAblation(),
		Exchange: runExchangeAblation(),
		OneSided: runOneSidedAblation(),
	}
}

// gateAblation evaluates every claim of the row (all of them, so each gate
// field is set) and reports whether all hold.
func gateAblation(r *ablationRows) bool {
	ok := r.Chunk.gate()
	ok = r.Get.gate() && ok
	ok = r.WC.gate() && ok
	ok = r.DMA.gate() && ok
	ok = r.Exchange.gate() && ok
	return r.OneSided.gate() && ok
}

// --- Rendezvous chunk (§3.3.2) ---

// chunkBeyondL2 is the chunk of the sweep that no longer fits L2.
const chunkBeyondL2 = 512 << 10

type chunkPoint struct {
	Chunk int64   `json:"chunk_bytes"`
	MiBs  float64 `json:"mibs"`
}

type chunkAblation struct {
	Default int64        `json:"default_chunk_bytes"`
	Points  []chunkPoint `json:"points"`

	GateDefaultNearBest bool `json:"gate_default_within_1pct_of_best"`
	GateBeyondL2Drops   bool `json:"gate_512k_over_20pct_below_best"`
}

// runChunkAblation sends one 1 MiB vector (8192 blocks of 16 doubles at a
// stride of 32) per rendezvous chunk size.
func runChunkAblation() chunkAblation {
	ty := datatype.Vector(8192, 16, 32, datatype.Float64).Commit()
	a := chunkAblation{Default: mpi.DefaultConfig(2, 1).Protocol.RendezvousChunk}
	for _, chunk := range []int64{32 << 10, 64 << 10, 256 << 10, chunkBeyondL2} {
		cfg := instrument(mpi.DefaultConfig(2, 1))
		cfg.Protocol.RendezvousChunk = chunk
		a.Points = append(a.Points, chunkPoint{chunk, streamBW(cfg, ty, 1, 1)})
	}
	return a
}

func (a *chunkAblation) gate() bool {
	var best, def, beyond float64
	for _, p := range a.Points {
		best = max(best, p.MiBs)
		if p.Chunk == a.Default {
			def = p.MiBs
		}
		if p.Chunk == chunkBeyondL2 {
			beyond = p.MiBs
		}
	}
	a.GateDefaultNearBest = def > 0 && def >= 0.99*best
	a.GateBeyondL2Drops = beyond > 0 && beyond < 0.8*best
	return a.GateDefaultNearBest && a.GateBeyondL2Drops
}

// --- Large gets become remote-puts (§4.2) ---

// getWinAt is the size at which the remote-put must win by getWinFactor.
const (
	getWinAt     = 32 << 10
	getWinFactor = 5
)

type getPoint struct {
	Bytes       int64 `json:"bytes"`
	DirectNS    int64 `json:"direct_ns"`
	RemotePutNS int64 `json:"remote_put_ns"`
	DefaultNS   int64 `json:"default_ns"`
}

type getAblation struct {
	DirectMax int64      `json:"get_direct_max"`
	Points    []getPoint `json:"points"`
	// Crossover is the smallest size of the sweep at which the remote-put
	// beats the direct read (recorded, not gated).
	Crossover int64 `json:"crossover_bytes"`

	GateDefaultFollowsThreshold bool `json:"gate_default_follows_threshold"`
	GateRemotePutWins           bool `json:"gate_remote_put_5x_at_32k"`
}

// runGetAblation times one MPI_Get of 8 B to 64 KiB from a shared window,
// forced direct, forced remote-put and at the default threshold.
func runGetAblation() getAblation {
	a := getAblation{DirectMax: osc.DefaultConfig().GetDirectMax}
	for _, n := range Sizes(8, 64<<10) {
		p := getPoint{
			Bytes:       n,
			DirectNS:    int64(getLatency(n, math.MaxInt64)),
			RemotePutNS: int64(getLatency(n, 0)),
			DefaultNS:   int64(getLatency(n, a.DirectMax)),
		}
		if a.Crossover == 0 && p.RemotePutNS < p.DirectNS {
			a.Crossover = n
		}
		a.Points = append(a.Points, p)
	}
	return a
}

// getLatency is the virtual time of one n-byte get between two nodes with
// the window's direct-read threshold at directMax.
func getLatency(n, directMax int64) (lat time.Duration) {
	mpi.Run(instrument(mpi.DefaultConfig(2, 1)), healthy(func(c *mpi.Comm) error {
		cfg := osc.DefaultConfig()
		cfg.GetDirectMax = directMax
		w := osc.NewSystem(c).CreateShared(c.AllocShared(n), cfg)
		err := w.Fence()
		if c.Rank() == 0 {
			start := c.WtimeDuration()
			err = errors.Join(err, w.Get(make([]byte, n), int(n), datatype.Byte, 1, 0))
			lat = c.WtimeDuration() - start
		}
		return errors.Join(err, w.Fence())
	}))
	return lat
}

func (a *getAblation) gate() bool {
	follows, wins := len(a.Points) > 0, false
	for _, p := range a.Points {
		want := p.RemotePutNS
		if p.Bytes <= a.DirectMax {
			want = p.DirectNS
		}
		follows = follows && p.DefaultNS == want
		if p.Bytes == getWinAt {
			wins = p.RemotePutNS > 0 && p.DirectNS >= getWinFactor*p.RemotePutNS
		}
	}
	a.GateDefaultFollowsThreshold, a.GateRemotePutWins = follows, wins
	return follows && wins
}

// --- Write-combining (§4.3) ---

type wcAblation struct {
	Access     int64   `json:"access_bytes"`
	Aligned    float64 `json:"aligned_mibs"`    // stride 512
	Misaligned float64 `json:"misaligned_mibs"` // stride 520
	Off        float64 `json:"wc_off_mibs"`     // stride 520, write-combining off

	GateOffHalvesAligned   bool `json:"gate_off_within_1pct_of_half_aligned"`
	GateOffBeatsMisaligned bool `json:"gate_off_over_10x_misaligned"`
}

func runWCAblation() wcAblation {
	return wcAblation{
		Access:     256,
		Aligned:    stridedBW(256, 512, true),
		Misaligned: stridedBW(256, 520, true),
		Off:        stridedBW(256, 520, false),
	}
}

func (a *wcAblation) gate() bool {
	half := float64(a.Aligned / 2) // explicitly rounded: no fused multiply-subtract below
	a.GateOffHalvesAligned = half > 0 && math.Abs(a.Off-half) <= half/100
	a.GateOffBeatsMisaligned = a.Off > 10*a.Misaligned
	return a.GateOffHalvesAligned && a.GateOffBeatsMisaligned
}

// --- DMA rendezvous (§6 outlook) ---

type dmaAblation struct {
	Bytes int64   `json:"bytes"`
	PIO   float64 `json:"pio_mibs"`
	DMA   float64 `json:"dma_mibs"`
	Peak  float64 `json:"dma_peak_mibs"`

	GatePIOFaster    bool `json:"gate_pio_faster"`
	GateDMAUnderPeak bool `json:"gate_dma_under_peak"`
}

// runDMAAblation sends one 1 MiB contiguous message with the adaptive
// chooser (PIO at this size) and with the DMA engine forced.
func runDMAAblation() dmaAblation {
	const n = 1 << 20
	bw := func(path mpi.PathPolicy) float64 {
		cfg := instrument(mpi.DefaultConfig(2, 1))
		cfg.Protocol.Path = path
		return streamBW(cfg, datatype.Byte, n, 1)
	}
	return dmaAblation{Bytes: n, PIO: bw(mpi.PathAdaptive), DMA: bw(mpi.PathDMA), Peak: sci.DMAPeakBW / MiB}
}

func (a *dmaAblation) gate() bool {
	a.GatePIOFaster = a.PIO > a.DMA
	a.GateDMAUnderPeak = a.DMA > 0 && a.DMA < a.Peak
	return a.GatePIOFaster && a.GateDMAUnderPeak
}

// --- Faulted exchange ---

// exchangeNodes, exchangeBytes and exchangeRounds pin the faulted exchange:
// a ring of Sendrecv calls.
const (
	exchangeNodes  = 4
	exchangeBytes  = 64 << 10
	exchangeRounds = 8
)

type exchangeRun struct {
	ElapsedNS int64  `json:"elapsed_ns"`
	Received  int64  `json:"bytes_received"`
	Digest    string `json:"digest"` // FNV-1a of every rank's received bytes, rank order
}

type exchangeAblation struct {
	Seed         uint64      `json:"seed"`
	Clean        exchangeRun `json:"clean"`
	Faulted      exchangeRun `json:"faulted"`
	Slowdown     float64     `json:"slowdown"`
	SendRetries  int64       `json:"send_retries"`
	Duplicates   int64       `json:"dropped_duplicates"`
	CheckRetries int64       `json:"check_retries"`

	GateSameBytes       bool `json:"gate_same_bytes"`
	GateNoSpeedup       bool `json:"gate_slowdown_at_least_1"`
	GateRecoveryCounted bool `json:"gate_recovery_counted"`
}

// runExchangeAblation runs the exchange clean and under injected write
// errors, check errors and duplicated packets.
func runExchangeAblation() exchangeAblation {
	a := exchangeAblation{Seed: ablationSeed}
	a.Clean, _ = exchange(nil)
	var w *mpi.World
	a.Faulted, w = exchange(fault.New(ablationSeed).WithWriteErrors(0.1).WithCheckErrors(0.05).WithDuplicates(0.1))
	a.Slowdown = float64(a.Faulted.ElapsedNS) / float64(a.Clean.ElapsedNS)
	for r := 0; r < w.Size(); r++ {
		a.SendRetries += w.Stats(r).SendRetries
		a.Duplicates += w.Stats(r).Duplicates
	}
	for n := 0; n < exchangeNodes; n++ {
		a.CheckRetries += w.InterconnectStats(n).CheckRetries
	}
	return a
}

// exchange runs the ring under plan (nil: fault-free) and returns what
// every rank received and the world, for its recovery counters.
func exchange(plan *fault.Plan) (run exchangeRun, w *mpi.World) {
	cfg := instrument(mpi.DefaultConfig(exchangeNodes, 1))
	cfg.SCI.Fault = plan
	digests := make([][]byte, exchangeNodes)
	received := make([]int64, exchangeNodes)
	d := mpi.Run(cfg, healthy(func(c *mpi.Comm) (err error) {
		me, size := c.Rank(), c.Size()
		if me == 0 {
			w = c.World()
		}
		src, in := make([]byte, exchangeBytes), make([]byte, exchangeBytes)
		h := fnv.New64a()
		for r := 0; r < exchangeRounds; r++ {
			// A payload per round and rank, so a chunk that never arrived
			// leaves bytes of another round behind.
			for i := range src {
				src[i] = byte(i*31 + me*7 + r*13)
			}
			st, e := c.Sendrecv(src, exchangeBytes, datatype.Byte, (me+1)%size, r,
				in, exchangeBytes, datatype.Byte, (me+size-1)%size, r)
			err = errors.Join(err, e)
			received[me] += st.Bytes
			h.Write(in)
		}
		digests[me] = h.Sum(nil)
		return err
	}))
	h := fnv.New64a()
	for r, dg := range digests {
		h.Write(dg)
		run.Received += received[r]
	}
	run.ElapsedNS, run.Digest = int64(d), fmt.Sprintf("%016x", h.Sum64())
	return run, w
}

func (a *exchangeAblation) gate() bool {
	a.GateSameBytes = a.Clean.Received > 0 && a.Faulted.Received == a.Clean.Received && a.Faulted.Digest == a.Clean.Digest
	a.GateNoSpeedup = a.Slowdown >= 1
	a.GateRecoveryCounted = a.SendRetries >= 1 && a.Duplicates >= 1 && a.CheckRetries >= 1
	return a.GateSameBytes && a.GateNoSpeedup && a.GateRecoveryCounted
}

// --- Faulted one-sided put ---

// oneSidedBytes is the put of the degradation row; the target's segment is
// revoked at oneSidedRevokeAt, before the put at twice that.
const (
	oneSidedBytes    = 32 << 10
	oneSidedRevokeAt = time.Millisecond
)

type oneSidedAblation struct {
	Seed         uint64  `json:"seed"`
	DirectNS     int64   `json:"direct_ns"`
	DegradedNS   int64   `json:"degraded_ns"`
	CostRatio    float64 `json:"degraded_cost_ratio"`
	Degradations int64   `json:"degradations"`
	PutError     string  `json:"put_error"`
	TargetOK     bool    `json:"target_bytes_correct"`

	GateOneDegradation bool `json:"gate_one_degradation"`
	GatePutOK          bool `json:"gate_put_returns_nil"`
	GateTargetOK       bool `json:"gate_target_bytes_correct"`
}

func runOneSidedAblation() oneSidedAblation {
	a := oneSidedAblation{Seed: ablationSeed}
	direct, _, _, _ := degradedPut(nil)
	degraded, degr, err, ok := degradedPut(fault.New(ablationSeed).RevokeSegment(1, 1, oneSidedRevokeAt))
	a.DirectNS, a.DegradedNS, a.Degradations, a.TargetOK = int64(direct), int64(degraded), degr, ok
	a.CostRatio = float64(degraded) / float64(direct)
	if err != nil {
		a.PutError = err.Error()
	}
	return a
}

// degradedPut times one put from rank 0 into rank 1's shared window after
// the plan has had its time, and reports the window's degradations, the
// put's error and whether the target holds the bytes put.
func degradedPut(plan *fault.Plan) (lat time.Duration, degradations int64, putErr error, targetOK bool) {
	cfg := instrument(mpi.DefaultConfig(2, 1))
	cfg.SCI.Fault = plan
	buf := make([]byte, oneSidedBytes)
	for i := range buf {
		buf[i] = byte(i*13 + 1)
	}
	mpi.Run(cfg, healthy(func(c *mpi.Comm) error {
		seg := c.AllocShared(oneSidedBytes)
		w := osc.NewSystem(c).CreateShared(seg, osc.DefaultConfig())
		err := w.Fence()
		c.Proc().Sleep(2 * oneSidedRevokeAt)
		if c.Rank() == 0 {
			start := c.WtimeDuration()
			putErr = w.Put(buf, oneSidedBytes, datatype.Byte, 1, 0)
			lat = c.WtimeDuration() - start
			degradations = w.Snapshot().Degradations
		}
		err = errors.Join(err, w.Fence())
		if c.Rank() == 1 {
			targetOK = string(seg.Bytes()) == string(buf)
		}
		return err
	}))
	return lat, degradations, putErr, targetOK
}

func (a *oneSidedAblation) gate() bool {
	a.GateOneDegradation = a.Degradations == 1
	a.GatePutOK = a.PutError == ""
	a.GateTargetOK = a.TargetOK
	return a.GateOneDegradation && a.GatePutOK && a.GateTargetOK
}

// --- Rendering ---

func ablationTables(r ablationRows) []block {
	chunk := &Table{
		Title: fmt.Sprintf("Ablation §3.3.2: rendezvous chunk size, 1 MiB vector (MiB/s; gates: default=%v 512k=%v)",
			r.Chunk.GateDefaultNearBest, r.Chunk.GateBeyondL2Drops),
		Header: "chunk\tMiB/s",
	}
	for _, p := range r.Chunk.Points {
		chunk.Add("%s\t%.1f", formatX(float64(p.Chunk)), p.MiBs)
	}
	get := &Table{
		Title: fmt.Sprintf("Ablation §4.2: MPI_Get direct read vs remote-put (µs; threshold %s, crossover %s; gates: default=%v 5x=%v)",
			formatX(float64(r.Get.DirectMax)), formatX(float64(r.Get.Crossover)), r.Get.GateDefaultFollowsThreshold, r.Get.GateRemotePutWins),
		Header: "bytes\tdirect\tremote-put\tdefault",
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for _, p := range r.Get.Points {
		get.Add("%s\t%.2f\t%.2f\t%.2f", formatX(float64(p.Bytes)), us(p.DirectNS), us(p.RemotePutNS), us(p.DefaultNS))
	}
	other := &Table{Title: "Ablations §4.3, §6 and under faults", Header: "claim\tmeasured\tgates"}
	other.Add("write-combining, 256 B accesses (MiB/s)\taligned %.1f, misaligned %.1f, off %.2f\thalf=%v 10x=%v",
		r.WC.Aligned, r.WC.Misaligned, r.WC.Off, r.WC.GateOffHalvesAligned, r.WC.GateOffBeatsMisaligned)
	other.Add("1 MiB rendezvous (MiB/s)\tPIO %.1f, DMA %.2f (peak %.0f)\tpio=%v peak=%v",
		r.DMA.PIO, r.DMA.DMA, r.DMA.Peak, r.DMA.GatePIOFaster, r.DMA.GateDMAUnderPeak)
	other.Add("faulted exchange\tslowdown %.3f, retries %d, duplicates %d, check retries %d\tbytes=%v slowdown=%v counted=%v",
		r.Exchange.Slowdown, r.Exchange.SendRetries, r.Exchange.Duplicates, r.Exchange.CheckRetries,
		r.Exchange.GateSameBytes, r.Exchange.GateNoSpeedup, r.Exchange.GateRecoveryCounted)
	other.Add("faulted one-sided put\tcost %.2fx, %d degradation(s)\tone=%v nil=%v bytes=%v",
		r.OneSided.CostRatio, r.OneSided.Degradations,
		r.OneSided.GateOneDegradation, r.OneSided.GatePutOK, r.OneSided.GateTargetOK)
	return []block{chunk, get, other}
}

// Package sci models the Scalable Coherent Interface interconnect as used
// in commodity clusters via PCI-SCI adapters (Dolphin D330 generation).
//
// The model follows the behaviour the paper builds on:
//
//   - Remote memory segments are transparently mapped; the CPU writes to
//     them with plain stores (PIO). Writes are "write-and-forget": the CPU
//     is free once the data left its write-combine buffer, but arrival at
//     the target is only guaranteed after a store barrier.
//   - Consecutive ascending writes gather in the adapter's stream buffers
//     into large SCI transactions; small or interrupted runs pay a heavy
//     efficiency penalty. Strided writes interact with the CPU's 32-byte
//     write-combine buffer: strides that are multiples of 32 perform far
//     better than misaligned ones.
//   - Remote reads stall the CPU per transaction and deliver only a
//     fraction of the write bandwidth.
//   - A DMA engine on the adapter moves large blocks without the CPU, at
//     lower peak bandwidth but with high startup cost.
//   - Transfers cross real ring segments; concurrent transfers share and
//     saturate them (modeled by internal/flow with the Table 2 calibration),
//     and each data packet generates flow-control echoes on the return path.
//   - Links are cables: transmission errors force retries, so a sequence
//     checking / connection monitoring layer is required (fault injection
//     is built into the model).
//
// All byte movement is real (segments are Go byte slices), so protocol
// correctness is testable; all timing is virtual, produced by the cost
// model below. Calibration targets are the paper's Figure 1, §4.3 and
// Table 2.
package sci

import (
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/memmodel"
	"scimpich/internal/obs"
	"scimpich/internal/obs/flight"
	"scimpich/internal/ring"
)

// MiB is one mebibyte.
const MiB = 1 << 20

// The adapter's calibration to the paper's testbed: dual Pentium-III 800
// nodes, 64 bit / 66 MHz PCI, Dolphin D330 adapters. The model is calibrated
// once (Figure 1, §4.3, Table 2) and no caller varies these values, so they
// are constants; a Config field is what two callers set differently.
const (
	// PIOWritePeakBW is the peak bandwidth of sequential transparent remote
	// writes (stream buffers fully gathering), bytes/second.
	PIOWritePeakBW float64 = 225 * MiB

	// SustainedPutBW is the per-node sustained throughput ceiling of the
	// MPI put path (Table 2 measures ~121-123 MiB/s per node).
	SustainedPutBW float64 = 123 * MiB

	// PIOReadStall is the CPU stall per remote read transaction.
	PIOReadStall time.Duration = 4700 * time.Nanosecond
	// pioReadChunk is the number of bytes fetched per read transaction.
	pioReadChunk int64 = 64
	// pioReadPipeline is the number of outstanding read transactions the
	// CPU/chipset sustains (>=1); larger values lift large-read bandwidth.
	pioReadPipeline float64 = 1.15

	// storeBarrierLatency is the cost of a store barrier (flushing the
	// adapter and checking transaction completion).
	storeBarrierLatency time.Duration = 1800 * time.Nanosecond

	// WriteIssueOverhead is the per-block software cost of a remote
	// block-wise write (address setup, loop control).
	WriteIssueOverhead time.Duration = 50 * time.Nanosecond

	// writeGatherGap and writeGatherGapTiny model stream-buffer restart
	// cost, expressed as equivalent dead bytes per block. Blocks below 16
	// bytes cannot gather effectively and use the tiny (large) gap: this is
	// the paper's footnote about the "relatively high latency of remote
	// memory accesses with 8 byte granularity".
	writeGatherGap     int64 = 8
	writeGatherGapTiny int64 = 64

	// EchoFraction is the fraction of the data rate that flow-control echo
	// packets impose on the return-path ring segments.
	EchoFraction float64 = 0.25

	// dmaStartup and DMAPeakBW describe the adapter's DMA engine.
	dmaStartup time.Duration = 22 * time.Microsecond
	DMAPeakBW  float64       = 85 * MiB

	// Scatter-gather DMA: a descriptor-list engine that gathers scattered
	// source runs and streams them onto the ring without the CPU. Unlike
	// the plain block engine (DMAPeakBW, calibrated against the D330's
	// single-transfer programmed setup), the list engine pipelines
	// descriptor fetch with data movement and feeds the adapter's stream
	// buffers directly, so its streaming rate approaches the PIO write
	// peak; what it pays instead is a per-descriptor processing cost.
	//
	// dmaSGDesc is the engine-side processing cost per descriptor;
	// DMASGBuild is the CPU cost of building one descriptor at submission;
	// dmaSGPeakBW is the engine's peak streaming bandwidth; dmaSGGap is
	// the stream restart cost per destination run, in equivalent dead
	// bytes (the analogue of writeGatherGap for the engine's own stream
	// transactions).
	dmaSGDesc   time.Duration = 30 * time.Nanosecond
	DMASGBuild  time.Duration = 15 * time.Nanosecond
	dmaSGPeakBW float64       = 225 * MiB
	dmaSGGap    int64         = 8

	// InterruptLatency is the cost of raising a remote interrupt (used by
	// the one-sided emulation path to invoke a remote handler).
	InterruptLatency time.Duration = 14 * time.Microsecond

	// RetryLatency is the added delay of one retransmission.
	RetryLatency time.Duration = 30 * time.Microsecond
)

// Config holds what callers set of the simulated SCI cluster: its size,
// the two switches the paper's own reruns vary, the fault plan, the
// observers and the memory model. The rest of the calibration is the
// constants above.
type Config struct {
	// Nodes is the number of nodes on the (single) ringlet.
	Nodes int

	// LinkMHz is the SCI link frequency; 166 MHz gives the paper's nominal
	// 633 MiB/s ring bandwidth, 200 MHz gives 762 MiB/s.
	LinkMHz float64

	// WriteCombine enables the CPU write-combine buffer model. Disabling it
	// removes the stride sensitivity of remote writes but halves overall
	// bandwidth (paper §4.3).
	WriteCombine bool

	// PIOWriteLatency is the wire latency until a posted remote write is
	// visible at the target. No caller sets it; it stays a field because
	// the benchmark module reads it from Interconnect.Cfg.
	PIOWriteLatency time.Duration

	// Fault is an optional deterministic fault-injection plan: scheduled
	// node crashes, link-disturbance windows, latency-only retransmissions,
	// CRC/sequence transfer errors, transfer-check failures and segment
	// revocations, all drawn from the plan's one seeded stream. nil injects
	// nothing. A Plan holds mutable draw state — use a fresh Plan (same
	// seed) per run.
	Fault *fault.Plan

	// Metrics, when non-nil, receives the interconnect's counters and
	// latency histograms (sci.pio.*, sci.dma.ns, sci.store_barrier.ns,
	// fault.injected{kind=...}). nil disables metrics at zero cost on the
	// PIO hot path.
	Metrics *obs.Registry

	// Flight, when non-nil, receives node crash/restore, segment
	// revocation, surfaced-fault and connection-loss events on the per-node
	// actor rings ("node<i>") and every fault the plan draws on the
	// "faultplan" ring, so a post-mortem can correlate protocol stalls with
	// the injected interconnect faults. nil records nothing at zero cost.
	Flight *flight.Recorder

	// Mem is the local memory hierarchy model of every node.
	Mem *memmodel.Model
}

// DefaultConfig returns the configuration calibrated to the paper's
// testbed: dual Pentium-III 800 nodes, 64 bit / 66 MHz PCI, Dolphin D330
// adapters on a single 166 MHz ringlet.
func DefaultConfig(nodes int) Config {
	return Config{
		Nodes:           nodes,
		LinkMHz:         ring.DefaultLinkMHz,
		WriteCombine:    true,
		PIOWriteLatency: 2300 * time.Nanosecond,
		Mem:             memmodel.PentiumIII800(),
	}
}

// StreamWriteBW returns the effective bandwidth of consecutive remote
// block writes with the given contiguous block size (the direct_pack_ff
// write pattern: ascending addresses, block-wise source).
func (c *Config) StreamWriteBW(blockSize int64) float64 {
	if blockSize <= 0 {
		return PIOWritePeakBW
	}
	gap := writeGatherGap
	if blockSize < 16 {
		gap = writeGatherGapTiny
	}
	peak := PIOWritePeakBW
	if !c.WriteCombine {
		peak *= 0.5
	}
	return peak * float64(blockSize) / float64(blockSize+gap)
}

// sgStreamBW returns the effective streaming bandwidth of the
// scatter-gather DMA engine for destination runs averaging runBytes: each
// run restart costs dmaSGGap equivalent dead bytes, mirroring the stream
// buffer model of StreamWriteBW but without the CPU write-combine
// interaction (the engine always emits full SCI transactions).
func sgStreamBW(runBytes int64) float64 {
	if runBytes <= 0 {
		return dmaSGPeakBW
	}
	return dmaSGPeakBW * float64(runBytes) / float64(runBytes+dmaSGGap)
}

// SGTransferCost returns the engine-side duration of a scatter-gather
// transfer: one startup, per-descriptor list processing, and the merged-run
// stream of all bytes at the run-dependent rate (capped by the source
// memory bandwidth for large working sets). It is exported so path
// choosers above the SCI layer can predict the engine from the same model
// it is charged with.
func (c *Config) SGTransferCost(nDesc int, bytes, avgRun int64) time.Duration {
	if bytes <= 0 {
		return dmaStartup
	}
	bw := sgStreamBW(avgRun)
	if c.Mem != nil {
		bw = c.Mem.EffectiveSourceBW(bw, bytes)
	}
	stream := time.Duration(float64(bytes) / bw * float64(time.Second))
	return dmaStartup + time.Duration(nDesc)*dmaSGDesc + stream
}

// alignedStrided and worstStrided are the calibrated raw bandwidths
// (MiB/s) of strided remote writes for best-case (stride a multiple of the
// 32-byte write-combine buffer) and worst-case alignment. The 8-byte and
// 256-byte points are the paper's §4.3 measurements (5–28 MiB/s and
// 7–162 MiB/s).
var alignedStrided = [][2]float64{
	{8, 28}, {16, 48}, {32, 72}, {64, 104}, {128, 136}, {256, 162},
	{512, 180}, {1024, 196}, {4096, 210}, {16384, 218}, {65536, 222},
}

var worstStrided = [][2]float64{
	{8, 5}, {16, 5.5}, {32, 6}, {64, 6.5}, {128, 6.8}, {256, 7},
	{512, 8}, {1024, 10}, {4096, 24}, {16384, 70}, {65536, 150},
}

// wcOffStrided is the stride-insensitive curve with write-combining
// disabled ("lowers the overall bandwidth about 50%").
var wcOffStrided = [][2]float64{
	{8, 14}, {16, 24}, {32, 36}, {64, 52}, {128, 68}, {256, 81},
	{512, 90}, {1024, 98}, {4096, 105}, {16384, 108}, {65536, 110},
}

// StridedWriteBW returns the raw bandwidth of remote writes of accessSize
// bytes separated by the given stride (stride >= accessSize; the gap is not
// written). With write-combining enabled the result depends strongly on
// stride alignment relative to the 32-byte WC buffer.
func (c *Config) StridedWriteBW(accessSize, stride int64) float64 {
	if accessSize <= 0 {
		return 0
	}
	if stride <= accessSize {
		// Effectively contiguous.
		return c.StreamWriteBW(accessSize)
	}
	if !c.WriteCombine {
		return interp(wcOffStrided, float64(accessSize)) * MiB
	}
	aligned := float64(interp(alignedStrided, float64(accessSize)) * MiB)
	worst := float64(interp(worstStrided, float64(accessSize)) * MiB)
	switch stride % 32 {
	case 0:
		return aligned
	case 16:
		return (aligned + worst) / 2
	default:
		return worst
	}
}

// readBW returns the effective bandwidth of a remote read of n bytes:
// the CPU stalls per pioReadChunk transaction, mildly pipelined.
func readBW(n int64) float64 {
	if n <= 0 {
		return 1
	}
	chunks := (n + pioReadChunk - 1) / pioReadChunk
	stall := PIOReadStall.Seconds() / pioReadPipeline
	return float64(n) / (float64(chunks) * stall)
}

// interp linearly interpolates a sorted (x, y) table, clamping outside it.
func interp(curve [][2]float64, x float64) float64 {
	if x <= curve[0][0] {
		return curve[0][1]
	}
	last := curve[len(curve)-1]
	if x >= last[0] {
		return last[1]
	}
	for i := 1; i < len(curve); i++ {
		if x <= curve[i][0] {
			x0, y0 := curve[i-1][0], curve[i-1][1]
			x1, y1 := curve[i][0], curve[i][1]
			t := (x - x0) / (x1 - x0)
			return y0 + float64(t*(y1-y0))
		}
	}
	return last[1]
}

package mpi

import (
	"fmt"
	"time"

	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
)

// Scaled watchdog timeouts. The fault tests of earlier revisions tuned
// CollTimeout / RendezvousTimeout by hand per cluster size; those magic
// numbers stop working the moment a run uses eight nodes instead of two,
// or a slower configured link. AutoTimeout derives every watchdog bound
// from the same quantities the simulator actually bills: the control-path
// latency prior, the sender's full retransmission budget, the adapter's
// reachability retries, and the wire time of one protocol chunk.

// AutoTimeout, assigned to ProtocolConfig.CollTimeout,
// ProtocolConfig.RendezvousTimeout or the timeout argument of RecvTimeout,
// selects the scaled watchdog bound for the world instead of a hand-tuned
// constant.
const AutoTimeout time.Duration = -1

// watchdogUnit is the building block of the scaled watchdogs: the worst
// plausible latency envelope of one protocol step against a struggling but
// live peer — control traffic, the sender's exhausted retransmission
// backoff, the adapter's reachability retries plus a remote interrupt, and
// one full protocol chunk on the wire.
func (w *World) watchdogUnit() time.Duration {
	p := w.protocol()
	unit := 8 * w.slowCtl()
	backoff := sendBackoff
	for i := 0; i <= sendRetryMax; i++ {
		unit += backoff
		backoff *= 2
	}
	if w.ic != nil {
		unit += 3*sci.RetryLatency + sci.InterruptLatency
		return unit + sim.RateDuration(p.RendezvousChunk, w.cfg.SCI.StreamWriteBW(p.RendezvousChunk))
	}
	return unit + sim.RateDuration(p.RendezvousChunk, w.cfg.Shm.Mem.CopyBW(128<<10))
}

// slowCtl is one control message between the world's farthest ranks (the
// call, the issue and flight on the ringlet when there is one, else on a
// node's shared memory, and the receiver's dispatch). The watchdogs and the
// shrink agreement's polling scale with it.
func (w *World) slowCtl() time.Duration {
	base := callOverhead + handlerLatency
	if w.ic != nil {
		return base + sci.WriteIssueOverhead + w.cfg.SCI.PIOWriteLatency
	}
	return base + shmem.SignalLatency
}

// ScaledCollTimeout is the AutoTimeout bound of one internal collective
// wait: tree algorithms forward through ceil(log2(P)) hops, so a peer's
// announcement may legitimately lag that many protocol steps behind.
func (w *World) ScaledCollTimeout() time.Duration {
	return time.Duration(ceilLog2(w.size)+2) * w.watchdogUnit()
}

// ScaledRendezvousTimeout is the AutoTimeout bound of one rendezvous
// control wait (CTS, chunk ack): a receiver-side step plus slack.
func (w *World) ScaledRendezvousTimeout() time.Duration {
	return 2 * w.watchdogUnit()
}

// ScaledSyncTimeout is the AutoTimeout bound of one one-sided
// synchronization wait: a fence collects size-1 announcements, each of
// which may lag a full protocol step behind the slowest member.
func (w *World) ScaledSyncTimeout() time.Duration {
	return time.Duration(w.size+1) * w.watchdogUnit()
}

// SyncTimeout is the bound of the world's one-sided synchronization waits
// (osc: Fence, Start, Wait, Lock, Unlock and the handler round trips),
// resolved from the mode of ProtocolConfig.CollTimeout: 0 waits forever,
// AutoTimeout takes ScaledSyncTimeout, a positive value is used as is.
func (w *World) SyncTimeout() time.Duration {
	return scaledOr(w.protocol().CollTimeout, w.ScaledSyncTimeout)
}

// checkTimeout panics, naming the configuration field, on a timeout that
// is negative and not AutoTimeout: such a value would silently wait
// forever, as 0 does.
func checkTimeout(field string, d time.Duration) {
	if d < 0 && d != AutoTimeout {
		panic(fmt.Sprintf("mpi: %s %v is negative and not AutoTimeout", field, d))
	}
}

// scaledOr resolves a configured timeout: AutoTimeout takes the scaled
// bound, positive values are used as-is, zero keeps the legacy
// wait-forever behaviour.
func scaledOr(cfg time.Duration, scaled func() time.Duration) time.Duration {
	switch {
	case cfg == AutoTimeout:
		return scaled()
	case cfg > 0:
		return cfg
	default:
		return 0
	}
}

func (w *World) collTimeoutEff() time.Duration {
	return scaledOr(w.protocol().CollTimeout, w.ScaledCollTimeout)
}

func (w *World) rendezvousTimeoutEff() time.Duration {
	return scaledOr(w.protocol().RendezvousTimeout, w.ScaledRendezvousTimeout)
}

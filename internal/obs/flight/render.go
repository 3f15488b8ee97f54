package flight

import (
	"fmt"
	"io"
	"time"

	"scimpich/internal/fault"
)

// Human rendering of dumps and reports, shared by cmd/postmortem, the
// Chrome export's instants and the tests, so the root-cause text asserted in
// CI is exactly what the tool prints.

// dropNames names the KPacketDrop reasons.
var dropNames = [...]string{
	DropRevoked: "peer revoked", DropNodeDown: "node down", DropDuplicate: "duplicate",
	DropStray: "stray", DropDrainFailed: "drain failed", DropUnknownWin: "unknown window",
	DropUnheldUnlock: "unlock of unheld lock",
}

// FormatEvent renders one event as a short human-readable line (no
// timestamp — callers prepend it).
func FormatEvent(e DumpEvent) string {
	switch e.KindOf() {
	case KRankNode:
		return fmt.Sprintf("rank%d runs on node%d", e.A, e.B)
	case KSendPost:
		proto := [...]string{"self", "short", "eager", "rendezvous"}
		p := "?"
		if e.D >= 0 && int(e.D) < len(proto) {
			p = proto[e.D]
		}
		return fmt.Sprintf("send -> rank%d tag %d (%dB via %s)", e.A, e.B, e.C, p)
	case KRecvPost:
		src := fmt.Sprintf("rank%d", e.A)
		if e.A < 0 {
			src = "any"
		}
		return fmt.Sprintf("recv posted <- %s tag %d (%dB)", src, e.B, e.C)
	case KRecvMatch:
		return fmt.Sprintf("recv matched <- rank%d tag %d (%dB)", e.A, e.B, e.C)
	case KRdvStart:
		return fmt.Sprintf("rendezvous %x -> rank%d started (%dB)", e.B, e.A, e.C)
	case KRdvCTS:
		return fmt.Sprintf("rendezvous %x <- rank%d clear-to-send (mode %d)", e.B, e.A, e.C)
	case KRdvChunk:
		return fmt.Sprintf("rendezvous %x <- rank%d chunk %dB (%dB so far)", e.B, e.A, e.C, e.D)
	case KRdvDone:
		return fmt.Sprintf("rendezvous %x with rank%d complete (%dB)", e.B, e.A, e.C)
	case KRdvCancel:
		return fmt.Sprintf("rendezvous %x with rank%d cancelled after %dB", e.B, e.A, e.C)
	case KPathChosen:
		names := [...]string{"pio-ff", "staged", "dma-sg", "generic", "pio-stream", "dma"}
		p := "?"
		if e.A >= 0 && int(e.A) < len(names) {
			p = names[e.A]
		}
		return fmt.Sprintf("deposit path %s (%dB)", p, e.B)
	case KPacketDrop:
		switch {
		case e.C <= 0 || int(e.C) >= len(dropNames) || dropNames[e.C] == "":
			return fmt.Sprintf("packet to/from rank%d dropped (reason %d)", e.B, e.C)
		case e.C >= DropUnknownWin:
			return fmt.Sprintf("window %d: request of rank%d dropped (%s)", e.A, e.B, dropNames[e.C])
		}
		return fmt.Sprintf("packet to/from rank%d dropped (%s)", e.B, dropNames[e.C])
	case KFenceEnter:
		return fmt.Sprintf("fence round %d on window %d entered", e.B, e.A)
	case KFenceExit:
		return fmt.Sprintf("fence round %d on window %d complete (%d peers)", e.B, e.A, e.C)
	case KPut:
		mode := "emulated"
		if e.D == 1 {
			mode = "direct"
		}
		return fmt.Sprintf("put -> rank%d %dB on window %d (%s)", e.A, e.B, e.C, mode)
	case KPutStage:
		return fmt.Sprintf("staged key %d seq %d on shard %d", e.A, e.B, e.C)
	case KCommit:
		return fmt.Sprintf("committed epoch %d (%d writes)", e.A, e.B)
	case KReplay:
		return fmt.Sprintf("replayed key %d seq %d on shard %d", e.A, e.B, e.C)
	case KWriteLost:
		return fmt.Sprintf("LOST WRITE key %d: committed seq %d, store serves %d", e.A, e.B, e.C)
	case KSuspect:
		return fmt.Sprintf("rank%d suspected", e.A)
	case KRevoke:
		return fmt.Sprintf("rank%d revoked", e.A)
	case KShrinkDeposit:
		return fmt.Sprintf("shrink %x: deposited liveness snapshot (%d ranks, digest %x)", e.A, e.B, e.C)
	case KShrinkAdopt:
		return fmt.Sprintf("shrink %x: adopted decision (%d dead, digest %x)", e.A, e.B, e.C)
	case KNodeDown:
		return fmt.Sprintf("node%d crashed", e.A)
	case KNodeUp:
		return fmt.Sprintf("node%d restored", e.A)
	case KSegRevoked:
		return fmt.Sprintf("segment %d of node%d revoked", e.B, e.A)
	case KDupInject:
		return fmt.Sprintf("duplicate delivery injected towards rank%d (seq %d)", e.B, e.C)
	case KFault:
		k := fault.Kind(e.A)
		if k == fault.ImportDenied {
			return fmt.Sprintf("fault: import of segment %d@node%d denied", e.C, e.B)
		}
		s := fmt.Sprintf("fault: %v from %d to %d", k, e.B, e.C)
		if e.D > 0 {
			s += fmt.Sprintf(" (retry %d)", e.D)
		}
		return s
	case KError:
		peer := fmt.Sprintf("rank%d", e.B)
		if e.B < 0 {
			peer = "collective"
		}
		return fmt.Sprintf("ERROR: %s failed (%s)", Op(e.A), peer)
	case KWinDegraded:
		return fmt.Sprintf("window %d: direct view of rank%d degraded to emulation", e.A, e.B)
	case KWinAbandoned:
		return fmt.Sprintf("window %d abandoned", e.A)
	case KConnLost:
		return fmt.Sprintf("connection node%d -> node%d lost after %d failed checks", e.A, e.B, e.C)
	}
	return fmt.Sprintf("%s a=%d b=%d c=%d d=%d", e.Kind, e.A, e.B, e.C, e.D)
}

// WriteReport prints the ranked anomaly report.
func WriteReport(w io.Writer, d *Dump, rep *Report) {
	if d.Reason != "" {
		fmt.Fprintf(w, "dump reason: %s\n", d.Reason)
	}
	fmt.Fprintf(w, "%d actors, %d events retained (%d evicted by the rings)\n",
		len(d.Actors), d.TotalEvents(), d.TotalDropped())
	if len(rep.Anomalies) == 0 {
		fmt.Fprintln(w, "no invariant violations found")
		return
	}
	fmt.Fprintf(w, "\ninvariant report (%d anomalies, most severe first):\n", len(rep.Anomalies))
	for i, an := range rep.Anomalies {
		actor := an.Actor
		if actor == "" {
			actor = "-"
		}
		fmt.Fprintf(w, "%2d. [sev %3d] %-20s %-8s %s\n", i+1, an.Severity, an.Check, actor, an.Summary)
	}
}

// WriteChain prints the causal chain terminating at the failure, one
// event per line with virtual time and Lamport clock.
func WriteChain(w io.Writer, d *Dump, rep *Report) {
	if len(rep.Chain) == 0 {
		return
	}
	fmt.Fprintf(w, "\ncausal chain to the failure (%d steps):\n", len(rep.Chain))
	for _, ref := range rep.Chain {
		ad := d.Actor(ref.Actor)
		if ad == nil || ref.Index >= len(ad.Events) {
			continue
		}
		e := ad.Events[ref.Index]
		clock := int64(0)
		if cs := rep.Clocks[ref.Actor]; ref.Index < len(cs) {
			clock = cs[ref.Index]
		}
		fmt.Fprintf(w, "  %12v  L%-5d %-8s %s\n", time.Duration(e.At), clock, ref.Actor, FormatEvent(e))
	}
}

// WriteTimelines prints the tail of every actor's window (last `tail`
// events; everything when tail <= 0).
func WriteTimelines(w io.Writer, d *Dump, tail int) {
	for _, ad := range d.Actors {
		evs := ad.Events
		if tail > 0 && len(evs) > tail {
			evs = evs[len(evs)-tail:]
		}
		fmt.Fprintf(w, "\n%s (%d events", ad.Actor, len(ad.Events))
		if ad.Dropped > 0 {
			fmt.Fprintf(w, ", %d evicted", ad.Dropped)
		}
		fmt.Fprintln(w, "):")
		for _, e := range evs {
			fmt.Fprintf(w, "  %12v  %s\n", time.Duration(e.At), FormatEvent(e))
		}
	}
}

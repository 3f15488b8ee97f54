package main

import (
	"fmt"

	"scimpich"
	"scimpich/internal/pack"
)

// noncontigTotal is the payload of every message: Figure 7 moves 256 KiB
// whatever the block size.
const noncontigTotal = 256 << 10

var noncontigBlocks = []int64{8, 16, 128, 1024}

// Full-size timed messages per phase.
const (
	noncontigFFMsgs      = 800 // per block size, direct_pack_ff
	noncontigGenericMsgs = 200 // per block size, generic engine
	noncontigContigMsgs  = 400
	noncontigStaticMsgs  = 4 // per block size, untimed claim phase (never scaled)
)

// ncPhase is one row of the figure: a datatype (nil = contiguous bytes)
// sent msgs times.
type ncPhase struct {
	row   string
	ty    *scimpich.Type
	msgs  int
	src   [2][]byte // alternating payloads
	want  [2][]byte // the receive buffer each must produce
	virt  int64     // virtual ns of the timed messages
	bytes int64
}

// vectorType is the benchmark's strided vector: blocks of bs bytes of
// doubles, gaps of the same size, noncontigTotal data bytes.
func vectorType(bs int64) *scimpich.Type {
	elems := int(bs / 8)
	return scimpich.Vector(int(noncontigTotal/bs), elems, 2*elems, scimpich.Float64).Commit()
}

// newPhase fills the two payloads of a row from the seed and computes, with
// the generic engine as the reference, the exact receive buffer each must
// leave behind (data blocks from the payload, gaps untouched at zero).
func newPhase(e *env, row string, bs int64, msgs int, stream uint64) *ncPhase {
	p := &ncPhase{row: row, msgs: msgs}
	span := int64(noncontigTotal)
	if bs > 0 {
		p.ty = vectorType(bs)
		span = p.ty.Extent()
	}
	rng := newStream(e.seed, stream)
	for i := range p.src {
		p.src[i] = make([]byte, span)
		rng.fill(p.src[i])
		p.want[i] = make([]byte, span)
		if p.ty == nil {
			copy(p.want[i], p.src[i])
			continue
		}
		lin := make([]byte, noncontigTotal)
		pack.GenericPack(lin, p.src[i], p.ty, 1, 0, -1)
		pack.GenericUnpack(p.want[i], lin, p.ty, 1, 0, -1)
	}
	return p
}

// runNoncontigVector: Figure 7 on 2 nodes. World A runs direct_pack_ff with
// the default path policy at four block sizes plus the contiguous
// reference; world B runs the generic engine at the same block sizes. One
// operation is one 256 KiB message, acknowledged by an empty message.
func runNoncontigVector(e *env) {
	var ff, gen []*ncPhase
	for i, bs := range noncontigBlocks {
		ff = append(ff, newPhase(e, fmt.Sprintf("ff_b%d", bs), bs, e.n(noncontigFFMsgs), uint64(10+i)))
		gen = append(gen, newPhase(e, fmt.Sprintf("generic_b%d", bs), bs, e.n(noncontigGenericMsgs), uint64(20+i)))
	}
	contig := newPhase(e, "contig", 0, e.n(noncontigContigMsgs), 30)

	var samples []int64
	var failed int64
	// world runs the phases on a fresh 2-node world. A measured world is
	// traced and its messages are timed; an unmeasured one only fills in
	// the phases' virtual times for the claims.
	world := func(cfg scimpich.Config, phases []*ncPhase, measured bool) {
		tr0 := e.tracerFor(measured)
		f, w := e.buildWorld(cfg, measured)
		w.Run(func(c *scimpich.Comm) {
			tr := tr0.rank0(c)
			dst := make([]byte, len(phases[0].src[0]))
			msg := func(p *ncPhase, i int) {
				count, ty := 1, p.ty
				if ty == nil {
					count, ty = noncontigTotal, scimpich.Byte
				}
				if c.Rank() == 0 {
					op := tr.op(c, int64(i))
					s := tr.call(c, spSend)
					c.Send(p.src[i%2], count, ty, 1, 0)
					tr.done(s, c)
					s = tr.call(c, spRecv)
					c.Recv(nil, 0, scimpich.Byte, 1, 1)
					tr.done(s, c)
					tr.done(op, c)
					return
				}
				d := dst[:len(p.src[0])]
				c.Recv(d, count, ty, 0, 0)
				if !e.same(d, p.want[i%2]) {
					failed++
				}
				c.Send(nil, 0, scimpich.Byte, 0, 1)
			}
			for _, p := range phases {
				if len(p.src[0]) > len(dst) {
					dst = make([]byte, len(p.src[0]))
				}
				clear(dst)
				for i := 0; i < warm(p.msgs); i++ {
					msg(p, i)
				}
				c.Barrier()
				timing := measured && c.Rank() == 0
				var ev0 uint64
				if timing {
					ev0 = f.Events()
					e.begin()
				}
				start := c.WtimeDuration()
				for i := 0; i < p.msgs; i++ {
					t0 := c.WtimeDuration()
					msg(p, i)
					if timing {
						samples = append(samples, int64(c.WtimeDuration()-t0))
					}
				}
				if timing {
					e.end(int64(p.msgs))
					e.res.Events += f.Events() - ev0
					e.allOps += int64(warm(p.msgs))
				}
				if c.Rank() == 0 {
					p.virt = int64(c.WtimeDuration() - start)
					p.bytes = int64(p.msgs) * noncontigTotal
				}
			}
		})
	}
	cfg := scimpich.DefaultConfig(2, 1)
	world(cfg, append(append([]*ncPhase{}, ff...), contig), true)
	cfg.Protocol.UseFF = false
	world(cfg, gen, true)
	e.res.Failed = failed

	var virt, ffVirt, ffBytes int64
	bw := map[string]float64{}
	for _, p := range append(append(append([]*ncPhase{}, ff...), gen...), contig) {
		virt += p.virt
		bw[p.row] = mibs(p.bytes, p.virt)
		e.res.Rows["virt_mibs_"+p.row] = bw[p.row]
	}
	for _, p := range ff {
		ffVirt += p.virt
		ffBytes += p.bytes
	}
	e.setVirt(float64(virt)/float64(e.res.Ops), samples, ffBytes, ffVirt)

	e.finish() // before the claim phase, in every repetition, so that all measure the same heap
	if !e.claims {
		return
	}
	// EXPERIMENTS.md states the Figure 7 claims for the direct_pack_ff engine
	// itself, so they are decided on an untimed world with the static path
	// pinned, as cmd/noncontig pins it; the timed ff rows above use the
	// default policy, which may pick another deposit path.
	var static []*ncPhase
	for i, bs := range noncontigBlocks {
		static = append(static, newPhase(e, fmt.Sprintf("ffstatic_b%d", bs), bs, noncontigStaticMsgs, uint64(40+i)))
	}
	cfg = scimpich.DefaultConfig(2, 1)
	cfg.Protocol.Path = scimpich.PathStatic
	world(cfg, static, false)
	for _, p := range static {
		bw[p.row] = mibs(p.bytes, p.virt)
		e.res.Rows["virt_mibs_"+p.row] = bw[p.row]
	}
	row := func(engine string, bs int64) float64 { return bw[fmt.Sprintf("%s_b%d", engine, bs)] }
	genericWins := func(bs int64) bool { return row("generic", bs) > row("ffstatic", bs) }
	e.claim("generic beats ff only at 8 B",
		genericWins(8) && !genericWins(16) && !genericWins(128) && !genericWins(1024),
		fmt.Sprintf("generic/ff MiB/s: 8 B %.1f/%.1f, 16 B %.1f/%.1f",
			row("generic", 8), row("ffstatic", 8), row("generic", 16), row("ffstatic", 16)))
	e.claim("ff >= 2x generic at 16 B", row("ffstatic", 16) >= 2*row("generic", 16),
		fmt.Sprintf("%.2fx", row("ffstatic", 16)/row("generic", 16)))
	e.claim("ff >= 0.85x contiguous at 128 B", row("ffstatic", 128) >= 0.85*bw["contig"],
		fmt.Sprintf("%.3fx (%.1f of %.1f MiB/s)", row("ffstatic", 128)/bw["contig"], row("ffstatic", 128), bw["contig"]))
	// Guideline (Hunold et al.): the default policy never loses to a path it
	// could have forced by more than the chooser's 15 % tolerance.
	worst := 0.0
	for _, bs := range noncontigBlocks {
		worst = max(worst, row("ffstatic", bs)/row("ff", bs))
	}
	e.claim("default path policy >= static ff / 1.15 at every block", worst <= 1.15,
		fmt.Sprintf("worst static/default ratio %.3f", worst))
}

package main

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"scimpich"
)

const oscWinSize = 256 << 10

// oscPhase is one row of Figure 9: a kind of access on a kind of window,
// at one access size, repeated for a number of fence epochs.
type oscPhase struct {
	row    string
	kind   spanKind
	access int64
	epochs int // full-size count, scaled at run time
	virt   int64
	calls  int64
}

// The full-size epoch counts are sized so that every phase takes a similar
// share of the repetition's wall time (private 8 B epochs cost ~100x a
// shared one).
func oscPhases() []*oscPhase {
	return []*oscPhase{
		{row: "put_shared_a8", kind: spPutShared, access: 8, epochs: 8},
		{row: "put_shared_a256", kind: spPutShared, access: 256, epochs: 200},
		{row: "get_shared_a8", kind: spGetShared, access: 8, epochs: 8},
		{row: "get_shared_a256", kind: spGetShared, access: 256, epochs: 200},
		{row: "put_private_a8", kind: spPutPrivate, access: 8, epochs: 1},
		{row: "put_private_a256", kind: spPutPrivate, access: 256, epochs: 24},
		{row: "get_private_a8", kind: spGetPrivate, access: 8, epochs: 1},
		{row: "get_private_a256", kind: spGetPrivate, access: 256, epochs: 24},
		{row: "acc_shared_a8", kind: spAccShared, access: 8, epochs: 1},
		{row: "acc_shared_a256", kind: spAccShared, access: 256, epochs: 24},
	}
}

// strided calls fn for every access of the sparse pattern: access bytes at
// a stride of twice the access, through the first span bytes of the window.
func strided(access, span int64, fn func(off int64)) {
	for off := int64(0); off+access <= span; off += 2 * access {
		fn(off)
	}
}

// runOSCSparse: Figure 9 on 2 nodes. Both ranks walk the partner's window
// with Put, Get or Accumulate calls and close each epoch with a fence. One
// operation is one call; the reference is a host-side image of every
// window, compared after every fence.
func runOSCSparse(e *env) {
	// The smoke test's scale shrinks the window too: a single 8 B epoch on a
	// private window costs a fifth of a second at full size.
	size := int64(oscWinSize)
	if e.scale < 0.1 {
		size /= 16
	}
	phases := oscPhases()
	var total int
	for _, p := range phases {
		p.epochs = e.n(p.epochs)
		total += (p.epochs) * int(size/(2*p.access))
	}
	samples := make([]int64, 0, total)

	// src[r][k] is what rank r writes in epochs of parity k; imgS/imgP are
	// the expected contents of rank r's shared and private window.
	var src [2][2][]byte
	var imgS, imgP [2][]byte
	rng := newStream(e.seed, 2)
	for r := range src {
		for k := range src[r] {
			src[r][k] = make([]byte, size)
			rng.fill(src[r][k])
		}
		imgS[r] = make([]byte, size)
		imgP[r] = make([]byte, size)
		rng.fill(imgS[r])
		copy(imgP[r], imgS[r])
	}

	f, w := e.buildWorld(scimpich.DefaultConfig(2, 1), true)

	var failed [2]int64
	w.Run(func(c *scimpich.Comm) {
		tr := e.tr.rank0(c)
		me, peer := c.Rank(), 1-c.Rank()
		sys := scimpich.NewOSC(c)
		seg := c.AllocShared(size)
		copy(seg.Bytes(), imgS[me])
		priv := make([]byte, size)
		copy(priv, imgP[me])
		shared := sys.CreateShared(seg, scimpich.DefaultOSCConfig())
		private := sys.CreatePrivate(priv, scimpich.DefaultOSCConfig())
		got := make([]byte, size)  // where Get calls land
		want := make([]byte, size) // what they must have fetched

		// mismatches counts the accesses whose bytes differ.
		mismatches := func(a, b []byte, access int64) (n int64) {
			if e.same(a, b) {
				return 0
			}
			strided(access, size, func(off int64) {
				if !bytes.Equal(a[off:off+access], b[off:off+access]) {
					n++
				}
			})
			return max(n, 1)
		}

		// epoch walks the first span bytes of the partner's window and
		// fences; the warm-up epoch (untimed) walks a twentieth of it.
		epoch := func(p *oscPhase, k int, span int64) {
			timed := span == size
			win, img := shared, &imgS
			if p.kind == spPutPrivate || p.kind == spGetPrivate {
				win, img = private, &imgP
			}
			data, a, count := src[me][k%2], p.access, int(p.access)
			start := c.WtimeDuration()
			strided(a, span, func(off int64) {
				t0 := c.WtimeDuration()
				s := tr.call(c, p.kind)
				switch p.kind {
				case spPutShared, spPutPrivate:
					win.Put(data[off:off+a], count, scimpich.Byte, peer, off)
				case spGetShared, spGetPrivate:
					win.Get(got[off:off+a], count, scimpich.Byte, peer, off)
				case spAccShared:
					win.Accumulate(data[off:off+a], count/8, scimpich.Int64, scimpich.OpSum, peer, off)
				}
				tr.done(s, c)
				if timed && me == 0 {
					samples = append(samples, int64(c.WtimeDuration()-t0))
				}
			})
			s := tr.call(c, spFence)
			win.Fence()
			tr.done(s, c)
			if timed && me == 0 {
				p.virt += int64(c.WtimeDuration() - start)
			}
			// Host-side reference: what the partner's calls did to my
			// window, or what my gets must have fetched.
			var bad int64
			switch p.kind {
			case spPutShared, spPutPrivate:
				from := src[peer][k%2]
				strided(a, span, func(off int64) { copy(img[me][off:off+a], from[off:off+a]) })
				bad = mismatches(win.LocalBytes(), img[me], a)
			case spAccShared:
				from := src[peer][k%2]
				strided(a, span, func(off int64) {
					for o := off; o < off+a; o += 8 {
						sum := binary.LittleEndian.Uint64(img[me][o:]) + binary.LittleEndian.Uint64(from[o:])
						binary.LittleEndian.PutUint64(img[me][o:], sum)
					}
				})
				bad = mismatches(win.LocalBytes(), img[me], a)
			default:
				strided(a, span, func(off int64) { copy(want[off:off+a], img[peer][off:off+a]) })
				bad = mismatches(got, want, a)
			}
			if timed {
				failed[me] += bad
			}
		}

		shared.Fence()
		private.Fence()
		for _, p := range phases {
			calls := int64(p.epochs) * (size / (2 * p.access))
			warmSpan := size / 20 &^ 511
			epoch(p, 1, warmSpan)
			var ev0 uint64
			if me == 0 {
				e.allOps += 2 * (warmSpan / (2 * p.access))
				ev0 = f.Events()
				e.begin()
			}
			for k := 0; k < p.epochs; k++ {
				epoch(p, k, size)
			}
			if me == 0 {
				e.end(2 * calls)
				e.res.Events += f.Events() - ev0
				p.calls = calls
			}
		}
	})
	e.res.Failed = failed[0] + failed[1]

	var virt, bytesMoved int64
	lat := map[string]float64{}
	for _, p := range phases {
		virt += p.virt
		bytesMoved += p.calls * p.access
		lat[p.row] = float64(p.virt) / float64(p.calls) / 1e3
		e.res.Rows["virt_us_"+p.row] = lat[p.row]
	}
	// Latency is virtual epoch time (calls and closing fence) per call of
	// one rank; both ranks issue their calls concurrently.
	e.setVirt(float64(virt)/float64(e.res.Ops/2), samples, bytesMoved, virt)

	// EXPERIMENTS.md, Figure 9.
	e.claim("put-shared latency < put-private latency",
		lat["put_shared_a8"] < lat["put_private_a8"] && lat["put_shared_a256"] < lat["put_private_a256"],
		fmt.Sprintf("8 B %.2f vs %.2f us, 256 B %.2f vs %.2f us",
			lat["put_shared_a8"], lat["put_private_a8"], lat["put_shared_a256"], lat["put_private_a256"]))
	e.claim("get-shared >> put-shared at 8 B (>= 4x)", lat["get_shared_a8"] >= 4*lat["put_shared_a8"],
		fmt.Sprintf("%.2f vs %.2f us", lat["get_shared_a8"], lat["put_shared_a8"]))
	inFloor := func(v float64) bool { return v >= 20 && v <= 25 }
	e.claim("private-window floor 20-25 us at 8 B", inFloor(lat["put_private_a8"]) && inFloor(lat["get_private_a8"]),
		fmt.Sprintf("put %.2f us, get %.2f us", lat["put_private_a8"], lat["get_private_a8"]))
}

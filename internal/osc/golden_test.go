package osc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"slices"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/obs/flight"
)

// TestOSCSyncGolden pins what the synchronization calls do: three epochs
// of ring puts under fence, post/start/complete/wait and lock/unlock, on
// shared and private windows, on 2×1, 3×1 and 4×2, with the ranks entering
// each epoch staggered (under PSCW an even rank's right neighbour posts
// before its Start, an odd rank's after). Each run has the flight recorder
// on and is compared with the table by three things: the FNV-1a of the
// merged flight dump (every rank's fence rounds, puts, requests and their
// instants, in recorder order), the virtual end of the run, and the FNV-1a
// of every rank's window bytes.
func TestOSCSyncGolden(t *testing.T) {
	for _, sh := range []struct {
		name       string
		nodes, ppn int
	}{{"2x1", 2, 1}, {"3x1", 3, 1}, {"4x2", 4, 2}} {
		for _, mode := range []string{"fence", "pscw", "lock"} {
			for _, shared := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/private", sh.name, mode)
				if shared {
					key = fmt.Sprintf("%s/%s/shared", sh.name, mode)
				}
				got := oscGoldenRun(t, sh.nodes, sh.ppn, mode, shared)
				if want, ok := oscSyncGolden[key]; !ok || got != want {
					t.Errorf("%s: got %q, want %q\n\t%q: %q,", key, got, want, key, got)
				}
			}
		}
	}
}

// oscGoldenRun runs one program of the golden table and returns its
// record: the dump's FNV, the virtual end and the windows' FNV.
func oscGoldenRun(t *testing.T, nodes, ppn int, mode string, shared bool) string {
	t.Helper()
	const epochs, block = 3, 256
	cfg := mpi.DefaultConfig(nodes, ppn)
	rec := flight.New(1 << 14)
	cfg.Flight = rec
	size := nodes * ppn
	wins := make([][]byte, size)
	end := mpi.Run(cfg, func(c *mpi.Comm) {
		w := mkWin(c, 2*epochs*block, shared)
		p := c.Proc()
		me := c.Rank()
		left, right := (me+size-1)%size, (me+1)%size
		src := make([]byte, block)
		for i := range src {
			src[i] = byte(i*7 + me*29 + 3)
		}
		for ep := 0; ep < epochs; ep++ {
			p.Sleep(time.Duration(me*(ep+1)) * 7 * time.Microsecond)
			off := int64(2 * ep * block)
			switch mode {
			case "fence":
				must(w.Fence())
				must(w.Put(src, block, datatype.Byte, right, off))
				must(w.Fence())
			case "pscw":
				must(w.Post([]int{left}))
				if me%2 == 0 {
					p.Sleep(40 * time.Microsecond)
				}
				must(w.Start([]int{right}))
				must(w.Put(src, block, datatype.Byte, right, off))
				must(w.Complete([]int{right}))
				must(w.Wait([]int{left}))
			case "lock":
				must(w.Lock(right))
				must(w.Put(src, block, datatype.Byte, right, off))
				must(w.Unlock(right))
				must(w.Lock(left))
				must(w.Put(src, block, datatype.Byte, left, off+block))
				must(w.Unlock(left))
			}
		}
		must(c.Barrier())
		wins[me] = slices.Clone(w.LocalBytes())
	})
	dump := rec.Snapshot("")
	for _, a := range dump.Actors {
		if a.Dropped > 0 {
			t.Fatalf("%s on %d×%d: ring %s dropped %d events", mode, nodes, ppn, a.Actor, a.Dropped)
		}
	}
	var buf bytes.Buffer
	if err := dump.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	r := fnv.New64a()
	r.Write(slices.Concat(wins...))
	return fmt.Sprintf("%016x %d %016x", h.Sum64(), int64(end), r.Sum64())
}

// oscSyncGolden is the table of TestOSCSyncGolden: dump FNV, virtual end in
// ns and window FNV per shape/mode/window.
var oscSyncGolden = map[string]string{
	"2x1/fence/shared":  "bdfd3d6d7fa4bdeb 89853 423ba90046258a25",
	"2x1/fence/private": "704e589412a4efac 143877 423ba90046258a25",
	"2x1/pscw/shared":   "59146cee73d008f0 148453 423ba90046258a25",
	"2x1/pscw/private":  "502df8408d65a89a 207877 423ba90046258a25",
	"2x1/lock/shared":   "115b7ec43d880e57 141576 51c8905fb73a0125",
	"2x1/lock/private":  "24df608934326566 441145 51c8905fb73a0125",
	"3x1/fence/shared":  "d2f93feb04c44fde 145185 7657c45089886225",
	"3x1/fence/private": "e321feff94209679 199209 7657c45089886225",
	"3x1/pscw/shared":   "0d94acd0a1f557ae 243319 7657c45089886225",
	"3x1/pscw/private":  "fc3aada1ebefe278 302743 7657c45089886225",
	"3x1/lock/shared":   "6b197018a6ab71f1 206442 fee060c980963925",
	"3x1/lock/private":  "dd609947e62fb95c 493218 fee060c980963925",
	"4x2/fence/shared":  "6eed41bf32947b6e 371263 ba8f3a6f1316eb25",
	"4x2/fence/private": "00219776fcdd05f7 425287 ba8f3a6f1316eb25",
	"4x2/pscw/shared":   "b7a57c63e5ab5133 410877 ba8f3a6f1316eb25",
	"4x2/pscw/private":  "958a9a048c97f54d 415343 ba8f3a6f1316eb25",
	"4x2/lock/shared":   "80f0c2bc37372bf2 389536 016974bcd69ff325",
	"4x2/lock/private":  "dc474c2a37cda93a 574951 016974bcd69ff325",
}

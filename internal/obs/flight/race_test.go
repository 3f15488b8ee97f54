package flight

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"scimpich/internal/sim"
)

// A recorder belongs to one run at a time: the processes of one sim.Engine
// take turns on it, each a coroutine that the engine switches to. Here
// writers, each its own actor, record into their own rings and a shared one
// between yielding Sleeps, each fails once mid-run, and a further process
// snapshots between their steps. make check runs it under -race, which
// checks the coroutine hand-offs that order the accesses.

func TestFlightConcurrentStress(t *testing.T) {
	const (
		writers       = 8
		eventsPer     = 400
		snapshotPolls = 50
	)
	rec := New(64)
	rec.SetDumpSink(func(*Dump) {})
	shared := rec.Actor("shared")

	e := sim.NewEngine()
	for w := 0; w < writers; w++ {
		actor := fmt.Sprintf("rank%d", w)
		e.Go(actor, func(p *sim.Proc) {
			own := rec.Actor(actor)
			for i := 0; i < eventsPer; i++ {
				shared.Record(p.Now(), KSendPost, int64(w), int64(i), 64, 1)
				own.Record(p.Now(), KRecvMatch, int64(w), int64(i), 64, 2)
				if i == eventsPer/2 {
					own.Fail(p.Now(), OpRecv, w, errors.New("stress failure"))
				}
				p.Sleep(time.Microsecond)
			}
		})
	}
	var polled []uint64
	e.Go("poller", func(p *sim.Proc) {
		for i := 0; i < snapshotPolls; i++ {
			p.Sleep(eventsPer * time.Microsecond / snapshotPolls)
			d := rec.Snapshot("poll")
			polled = append(polled, uint64(d.TotalEvents())+d.TotalDropped())
			_, _ = shared.Window()
			_ = rec.Dumped()
			_ = rec.Reason()
		}
	})
	e.Run()

	if !rec.Dumped() {
		t.Fatal("no dump fired despite Fail calls")
	}
	// Every ring retained exactly its capacity and accounted for the rest.
	for w := 0; w < writers; w++ {
		rg := rec.Actor(fmt.Sprintf("rank%d", w))
		// eventsPer records + 1 KError.
		if got := rg.n; got != eventsPer+1 {
			t.Errorf("rank%d: %d events recorded, want %d", w, got, eventsPer+1)
		}
	}
	if got := shared.n; got != writers*eventsPer {
		t.Errorf("shared ring: %d events recorded, want %d", got, writers*eventsPer)
	}
	// The writers took turns: the shared ring's last window holds all of them.
	inWindow := map[int64]bool{}
	for _, e := range shared.Events() {
		inWindow[e.A] = true
	}
	if len(inWindow) != writers {
		t.Errorf("shared ring's window holds %d writers, want %d", len(inWindow), writers)
	}
	// The polls saw the run in progress, growing.
	total := uint64(writers*eventsPer + writers*(eventsPer+1))
	if polled[0] == 0 || polled[0] >= total || !slices.IsSorted(polled) {
		t.Errorf("polled event totals %v, want growing from above 0 and below %d", polled, total)
	}
	// One goroutine records at a time, so every ring's window is in strictly
	// increasing global sequence order.
	for w := 0; w < writers; w++ {
		var last uint64
		for _, e := range rec.Actor(fmt.Sprintf("rank%d", w)).Events() {
			if e.Seq <= last {
				t.Fatalf("rank%d: seq %d after %d", w, e.Seq, last)
			}
			last = e.Seq
		}
	}
}

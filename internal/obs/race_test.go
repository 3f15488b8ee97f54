package obs

import (
	"fmt"
	"io"
	"testing"
	"time"

	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

// A trace, registry or recorder belongs to one run at a time: the processes
// of one sim.Engine take turns on it, each a coroutine that the engine
// switches to. The stress tests below interleave such processes with
// yielding Sleeps and poll from a further process mid-run; make check runs
// them under -race, which checks the coroutine hand-offs that order the
// accesses.

// runProcs runs workers processes rank0..rank<workers-1> and a poller
// process on one engine, to completion.
func runProcs(workers int, worker func(p *sim.Proc, actor string, w int), poller func(p *sim.Proc)) {
	e := sim.NewEngine()
	for w := 0; w < workers; w++ {
		actor := fmt.Sprintf("rank%d", w)
		e.Go(actor, func(p *sim.Proc) { worker(p, actor, w) })
	}
	e.Go("poller", poller)
	e.Run()
}

func TestTraceConcurrentStress(t *testing.T) {
	const (
		actors   = 8
		spansPer = 300
		polls    = 40
	)
	// Small rings, so the drop counters are exercised.
	tr := NewTrace(128)
	rec := flight.New(128)

	runProcs(actors, func(p *sim.Proc, actor string, a int) {
		for i := 0; i < spansPer; i++ {
			// Both spans stay open across a yield, so the other actors'
			// spans start and end while this actor's stack is two deep.
			outer := tr.StartSpan(p.Now(), actor, "send", "rdv")
			inner := tr.StartSpan(p.Now(), actor, "pack", "direct_pack_ff")
			inner.SetBytes(4096)
			p.Sleep(time.Microsecond)
			inner.End(p.Now())
			outer.SetBytes(65536)
			outer.End(p.Now())
			rec.Actor(actor).Record(p.Now(), flight.KFault, 0, int64(a), 0, 1)
		}
	}, func(p *sim.Proc) {
		for i := 0; i < polls; i++ {
			p.Sleep(spansPer * time.Microsecond / polls)
			_ = tr.Spans()
			_ = tr.DroppedSpans()
			if err := tr.WriteChrome(io.Discard, rec); err != nil {
				t.Errorf("WriteChrome: %v", err)
			}
		}
	})

	wantSpans := int64(actors * spansPer * 2)
	if got := int64(len(tr.Spans())) + tr.DroppedSpans(); got != wantSpans {
		t.Errorf("spans retained+dropped = %d, want %d", got, wantSpans)
	}
	d := rec.Snapshot("")
	if got, want := uint64(d.TotalEvents())+d.TotalDropped(), uint64(actors*spansPer); got != want {
		t.Errorf("flight events retained+dropped = %d, want %d", got, want)
	}
}

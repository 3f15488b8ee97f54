package obs

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"scimpich/internal/obs/flight"
)

// Concurrency stress for the trace exporter: per-actor span stacks, the
// shared span ring and drop counter, flight rings recorded beside them, and
// a concurrent Chrome export of both. Run under -race in CI.

func TestTraceConcurrentStress(t *testing.T) {
	const (
		actors   = 8
		spansPer = 300
	)
	// Small rings, so the drop counters are exercised.
	tr := NewTrace(128)
	rec := flight.New(128)

	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			actor := fmt.Sprintf("rank%d", a)
			for i := 0; i < spansPer; i++ {
				at := time.Duration(i) * time.Microsecond
				outer := tr.StartSpan(at, actor, "send", "rdv")
				inner := tr.StartSpan(at+1, actor, "pack", "direct_pack_ff")
				inner.SetBytes(4096)
				inner.End(at + 2)
				outer.AddBytes(65536)
				outer.End(at + 3)
				rec.Actor(actor).Record(at+4, flight.KFault, 0, int64(a), 0, 1)
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			_ = tr.Spans()
			_ = tr.DroppedSpans()
			if err := tr.WriteChrome(io.Discard, rec); err != nil {
				t.Errorf("WriteChrome: %v", err)
			}
		}
	}()
	wg.Wait()

	wantSpans := int64(actors * spansPer * 2)
	if got := int64(len(tr.Spans())) + tr.DroppedSpans(); got != wantSpans {
		t.Errorf("spans retained+dropped = %d, want %d", got, wantSpans)
	}
	d := rec.Snapshot("")
	if got, want := uint64(d.TotalEvents())+d.TotalDropped(), uint64(actors*spansPer); got != want {
		t.Errorf("flight events retained+dropped = %d, want %d", got, want)
	}
}

func TestChromeExportCarriesDropCounts(t *testing.T) {
	tr := NewTrace(2)
	rec := flight.New(2)
	for i := 0; i < 5; i++ {
		at := time.Duration(i) * time.Microsecond
		tr.StartSpan(at, "rank0", "send", "short").End(at + 1)
		rec.Actor("rank0").Record(at, flight.KFault, 0, 0, 1, 1)
	}
	if tr.DroppedSpans() != 3 || rec.Actor("rank0").Dropped() != 3 {
		t.Fatalf("drops = %d spans / %d events, want 3 / 3",
			tr.DroppedSpans(), rec.Actor("rank0").Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	evs, other, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no events round-tripped")
	}
	if other.DroppedSpans != 3 || other.DroppedEvents != 3 {
		t.Errorf("otherData = %+v, want both drop counts at 3", other)
	}

	// A complete trace must not emit otherData at all.
	tr2 := NewTrace(0)
	tr2.StartSpan(0, "rank0", "send", "short").End(1)
	rec2 := flight.New(0)
	rec2.Actor("rank0").Record(0, flight.KFault, 0, 0, 1, 1)
	var buf2 bytes.Buffer
	if err := tr2.WriteChrome(&buf2, rec2); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf2.String(), "otherData") {
		t.Errorf("complete trace emitted otherData:\n%s", buf2.String())
	}
	if _, other2, err := ReadChrome(&buf2); err != nil || other2 != (ChromeOther{}) {
		t.Errorf("complete trace meta = %+v, %v; want zero, nil", other2, err)
	}
}

package obs

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"scimpich/internal/obs/flight"
	"scimpich/internal/sim"
)

func TestSpanNesting(t *testing.T) {
	tr := NewTrace(0)
	outer := tr.StartSpan(0, "rank0", "send", "rdv")
	inner := tr.StartSpan(10, "rank0", "pack", "direct_pack_ff")
	other := tr.StartSpan(5, "rank1", "recv", "rdv") // different actor: no nesting
	inner.SetBytes(4096)
	inner.End(20)
	outer.SetBytes(65536)
	outer.End(30)
	other.End(25)

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byName := map[string]*Span{}
	for _, s := range spans {
		byName[s.Name+"/"+s.Actor] = s
	}
	o := byName["rdv/rank0"]
	i := byName["direct_pack_ff/rank0"]
	r1 := byName["rdv/rank1"]
	if o == nil || i == nil || r1 == nil {
		t.Fatalf("missing spans: %v", byName)
	}
	if o.Parent != 0 {
		t.Errorf("outer parent = %d, want 0 (root)", o.Parent)
	}
	if i.Parent != o.ID {
		t.Errorf("inner parent = %d, want outer id %d", i.Parent, o.ID)
	}
	if r1.Parent != 0 {
		t.Errorf("rank1 span parent = %d, want 0 (other actor must not nest)", r1.Parent)
	}
	if i.Duration() != 10 || o.Duration() != 30 {
		t.Errorf("durations: inner %v outer %v", i.Duration(), o.Duration())
	}
}

func TestSpanSiblingsAfterPop(t *testing.T) {
	tr := NewTrace(0)
	epoch := tr.StartSpan(0, "rank0", "osc", "epoch")
	put1 := tr.StartSpan(1, "rank0", "osc", "put")
	put1.End(2)
	put2 := tr.StartSpan(3, "rank0", "osc", "put")
	put2.End(4)
	epoch.End(5)
	if put1.Parent != epoch.ID || put2.Parent != epoch.ID {
		t.Errorf("siblings should both parent the epoch: %d %d want %d",
			put1.Parent, put2.Parent, epoch.ID)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTrace(0)
	s := tr.StartSpan(0, "a", "c", "n")
	s.End(10)
	s.End(99) // must not re-append or move EndAt
	if got := len(tr.Spans()); got != 1 {
		t.Fatalf("double End produced %d spans", got)
	}
	if s.EndAt != 10 {
		t.Errorf("EndAt moved to %v", s.EndAt)
	}
}

func TestOpenSpansDroppedFromExport(t *testing.T) {
	tr := NewTrace(0)
	tr.StartSpan(0, "a", "c", "never-ended")
	done := tr.StartSpan(1, "a", "c", "done")
	done.End(2)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Ph == "X" && e.Name == "never-ended" {
			t.Errorf("open span exported: %+v", e)
		}
	}
}

func TestRingKeepsNewest(t *testing.T) {
	tr := NewTrace(3)
	for i := 0; i < 10; i++ {
		s := tr.StartSpan(time.Duration(i), "a", "c", fmt.Sprintf("s%d", i))
		s.End(time.Duration(i) + 1)
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	for i, want := range []string{"s7", "s8", "s9"} {
		if spans[i].Name != want {
			t.Errorf("span[%d] = %q, want %q (ring must keep newest, oldest-first order)", i, spans[i].Name, want)
		}
	}
	if tr.DroppedSpans() != 7 {
		t.Errorf("dropped = %d, want 7", tr.DroppedSpans())
	}
}

func TestChromeRoundTrip(t *testing.T) {
	tr := NewTrace(0)
	rec := flight.New(0)
	rec.Actor("rank1").Record(5, flight.KFault, 0, 1, 0, 0) // fault kind 0 is crc
	outer := tr.StartSpan(0, "rank0", "send", "rdv")
	inner := tr.StartSpan(10, "rank0", "pack", "direct_pack_ff")
	inner.SetBytes(4096)
	inner.SetDetail("blocks=%d", 8)
	inner.End(20)
	outer.SetBytes(65536)
	outer.End(30)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, rec); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadChrome(&buf)
	if err != nil {
		t.Fatalf("WriteChrome output does not parse back: %v", err)
	}

	var meta, complete, instant int
	byName := map[string]ChromeEvent{}
	tidName := map[int]string{}
	for _, e := range evs {
		switch e.Ph {
		case "M":
			meta++
			tidName[e.Tid], _ = e.Args["name"].(string)
		case "X":
			complete++
			byName[e.Name] = e
		case "i":
			instant++
			byName[e.Name] = e
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if meta != 2 { // rank1 and rank0 thread_name records
		t.Errorf("thread_name metadata = %d, want 2", meta)
	}
	if complete != 2 || instant != 1 {
		t.Errorf("complete=%d instant=%d, want 2/1", complete, instant)
	}
	// The flight event is an instant on its actor's thread, named as
	// flight.FormatEvent renders it.
	if f, ok := byName["fault: crc from 1 to 0"]; !ok || f.Cat != "fault" || f.Ts != 0.005 || tidName[f.Tid] != "rank1" {
		t.Errorf("flight instant = %+v (present %v), want fault on rank1 at 0.005us", f, ok)
	}

	o, i := byName["rdv"], byName["direct_pack_ff"]
	if o.Cat != "send" || i.Cat != "pack" {
		t.Errorf("categories: %q %q", o.Cat, i.Cat)
	}
	// Span nesting must survive the round trip via args.id / args.parent.
	oid, ok1 := o.Args["id"].(float64)
	pid, ok2 := i.Args["parent"].(float64)
	if !ok1 || !ok2 || oid != pid {
		t.Errorf("nesting lost: outer id=%v inner parent=%v", o.Args["id"], i.Args["parent"])
	}
	if b, _ := i.Args["bytes"].(float64); b != 4096 {
		t.Errorf("inner bytes = %v", i.Args["bytes"])
	}
	if d, _ := i.Args["detail"].(string); d != "blocks=8" {
		t.Errorf("inner detail = %v", i.Args["detail"])
	}
	// Timestamps are microseconds: outer started at 0ns for 30ns = 0.03µs.
	if o.Ts != 0 || o.Dur != 0.03 {
		t.Errorf("outer ts/dur = %v/%v, want 0/0.03", o.Ts, o.Dur)
	}
	// Inner must lie within the outer span on the same tid.
	if i.Ts < o.Ts || i.Ts+i.Dur > o.Ts+o.Dur || i.Tid != o.Tid {
		t.Errorf("inner not nested in outer: inner [%v,+%v] tid %d, outer [%v,+%v] tid %d",
			i.Ts, i.Dur, i.Tid, o.Ts, o.Dur, o.Tid)
	}
}

func TestSummarize(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 4; i++ {
		s := tr.StartSpan(time.Duration(i*100), "rank0", "send", "eager")
		s.SetBytes(1000)
		s.End(time.Duration(i*100 + 50))
	}
	s := tr.StartSpan(0, "rank1", "osc", "put")
	s.SetBytes(64)
	s.End(7)

	sums := tr.Summarize()
	if len(sums) != 2 {
		t.Fatalf("got %d categories, want 2: %+v", len(sums), sums)
	}
	if sums[0].Category != "osc" || sums[1].Category != "send" {
		t.Fatalf("not sorted by category: %+v", sums)
	}
	send := sums[1]
	if send.Spans != 4 || send.Bytes != 4000 || send.Total != 200 || send.Max != 50 {
		t.Errorf("send summary = %+v", send)
	}

	// SummarizeChrome over the exported file must agree on counts and bytes.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	csums := SummarizeChrome(evs)
	if len(csums) != 2 || csums[1].Spans != 4 || csums[1].Bytes != 4000 {
		t.Errorf("chrome summary = %+v", csums)
	}
}

// TestTraceConcurrency: processes of one engine, each its own actor, open
// and end spans across yielding Sleeps while a poller exports mid-run.
func TestTraceConcurrency(t *testing.T) {
	const actors, spansPer = 8, 200
	tr := NewTrace(64)
	runProcs(actors, func(p *sim.Proc, actor string, _ int) {
		for i := 0; i < spansPer; i++ {
			s := tr.StartSpan(p.Now(), actor, "send", "op")
			s.SetBytes(8)
			p.Sleep(time.Nanosecond)
			s.End(p.Now())
		}
	}, func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(spansPer * time.Nanosecond / 10)
			if err := tr.WriteChrome(io.Discard, nil); err != nil {
				t.Errorf("WriteChrome: %v", err)
			}
		}
	})
	if got := len(tr.Spans()); got != 64 {
		t.Errorf("spans retained = %d, want limit 64", got)
	}
	if got := int64(len(tr.Spans())) + tr.DroppedSpans(); got != actors*spansPer {
		t.Errorf("spans retained+dropped = %d, want %d", got, actors*spansPer)
	}
}

// TestSummarizeChromeMatchesSummarize: a Chrome export read back summarizes
// exactly as the live trace does. Durations travel in microseconds, and
// some integer nanosecond counts (4007 ns is the first) come back a hair
// below the integer, so truncating them would lose 1 ns each.
func TestSummarizeChromeMatchesSummarize(t *testing.T) {
	tr := NewTrace(0)
	for i := 0; i < 1000; i++ {
		s := tr.StartSpan(time.Duration(i)*time.Millisecond, "rank0", []string{"send", "recv"}[i%2], "op")
		s.SetBytes(int64(i))
		s.End(s.Start + time.Duration(4000+i))
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	evs, _, err := ReadChrome(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := SummarizeChrome(evs), tr.Summarize(); !reflect.DeepEqual(got, want) {
		t.Errorf("SummarizeChrome = %+v\nwant Summarize = %+v", got, want)
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
	if _, dropped := rec.Actor("rank0").Window(); tr.DroppedSpans() != 3 || dropped != 3 {
		t.Fatalf("drops = %d spans / %d events, want 3 / 3", tr.DroppedSpans(), dropped)
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

func TestNilTraceIsInert(t *testing.T) {
	var none *Trace
	sp := none.StartSpan(0, "a", "b", "c") // must not panic
	sp.SetDetail("d %d", 1)
	sp.End(1)
	if sp != nil || none.Spans() != nil || none.Summarize() != nil {
		t.Error("nil trace leaked state")
	}
	if err := none.WriteChrome(&bytes.Buffer{}, nil); err == nil {
		t.Error("WriteChrome on a nil trace succeeded")
	}
}

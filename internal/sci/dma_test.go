package sci

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// TestDMADrawsRetriesOnce: a DMA transfer draws its retransmissions once,
// as a PIO write does. Twin clusters with the same retry plan, one moving
// data by DMA (plain and scatter-gather in turn) and one by WriteStream, in
// transfers of equal sizes, record the same retries.
func TestDMADrawsRetriesOnce(t *testing.T) {
	const n, size = 64, 4096
	run := func(write func(p *sim.Proc, m *Mapping, i int)) int64 {
		e := sim.NewEngine()
		cfg := DefaultConfig(2)
		cfg.Fault = fault.New(5).WithRetries(0.3)
		ic := New(e, cfg)
		seg := ic.Node(1).Export(size)
		e.Go("writer", func(p *sim.Proc) {
			m := ic.Node(0).MustImport(1, seg.ID())
			for i := 0; i < n; i++ {
				write(p, m, i)
			}
		})
		e.Run()
		return ic.Node(0).Snapshot().Retries
	}
	src := fill(size)
	descs := []pack.Descriptor{{SrcOff: 0, DstOff: 0, Len: size, Count: 1}}
	dma := run(func(p *sim.Proc, m *Mapping, i int) {
		var req *DMARequest
		if i%2 == 0 {
			req = m.DMAWrite(p, 0, src)
		} else {
			req = m.DMAWriteSG(p, 0, src, descs)
		}
		if err := req.Wait(p); err != nil {
			t.Errorf("DMA transfer %d failed: %v", i, err)
		}
	})
	pio := run(func(p *sim.Proc, m *Mapping, _ int) { must(m.WriteStream(p, 0, src, 0)) })
	if dma == 0 || dma != pio {
		t.Errorf("%d DMA transfers recorded %d retries, as many PIO writes %d: want equal and non-zero", n, dma, pio)
	}
}

// TestDMAQueuedBehindFirst pins the completion instants of a fresh node's
// first DMA transfer, which makes its engine, and of a second one submitted
// while the first is under way, which waits for it: the values the engine
// gave when it was a daemon started with its node.
func TestDMAQueuedBehindFirst(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	var done [2]time.Duration
	e.Go("submitter", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		p.Sleep(3 * time.Microsecond)
		reqs := [2]*DMARequest{m.DMAWrite(p, 0, fill(256<<10)), m.DMAWrite(p, 512<<10, fill(64<<10))}
		for i, req := range reqs {
			e.Go("observer", func(q *sim.Proc) { q.Await(&req.done); done[i] = q.Now() })
		}
		for _, req := range reqs {
			if err := req.Wait(p); err != nil {
				t.Errorf("DMA transfer failed: %v", err)
			}
		}
	})
	e.Run()
	if want := [2]time.Duration{2966277, 3723572}; done != want {
		t.Errorf("transfers done at %v, want %v", done, want)
	}
}

// TestDMAWriteSGChecksEveryEntry: a scatter-gather list is bounded by the
// largest destination end over all its entries, not by its last one, and an
// entry that reads outside src or holds no block is refused. Every refusal
// is ErrOutOfRange from Wait, the engine moves nothing and stays up; an
// accepted run-length entry lands its blocks back to back.
func TestDMAWriteSGChecksEveryEntry(t *testing.T) {
	const segSize = 4096
	src := fill(256)
	cases := []struct {
		name  string
		descs []pack.Descriptor
		ok    bool
	}{
		{"far entry before the last", []pack.Descriptor{
			{SrcOff: 0, DstOff: 8192, Len: 64, Count: 1},
			{SrcOff: 64, DstOff: 0, Len: 64, Count: 1}}, false},
		{"entry past the end of src", []pack.Descriptor{
			{SrcOff: 0, DstOff: 0, Len: 64, Count: 1},
			{SrcOff: 224, DstOff: 64, Len: 64, Count: 1}}, false},
		{"run past the end of src", []pack.Descriptor{
			{SrcOff: 0, DstOff: 0, Len: 8, Count: 5, Stride: 64}}, false},
		{"negative source offset", []pack.Descriptor{
			{SrcOff: -8, DstOff: 0, Len: 8, Count: 1}}, false},
		{"empty run", []pack.Descriptor{
			{SrcOff: 0, DstOff: 0, Len: 8, Count: 0}}, false},
		{"strided run", []pack.Descriptor{
			{SrcOff: 0, DstOff: 16, Len: 8, Count: 4, Stride: 64},
			{SrcOff: 8, DstOff: 0, Len: 16, Count: 1}}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, ic := testCluster(2)
			seg := ic.Node(1).Export(segSize)
			e.Go("submitter", func(p *sim.Proc) {
				m := ic.Node(0).MustImport(1, seg.ID())
				err := m.DMAWriteSG(p, 0, src, tc.descs).Wait(p)
				var oor ErrOutOfRange
				if tc.ok && err != nil || !tc.ok && !errors.As(err, &oor) {
					t.Fatalf("Wait = %v, want ok=%v or ErrOutOfRange", err, tc.ok)
				}
			})
			e.Run()
			want := make([]byte, segSize)
			if tc.ok {
				for _, d := range tc.descs {
					for i := range d.Count {
						s := d.SrcOff + i*d.Stride
						copy(want[d.DstOff+i*d.Len:], src[s:s+d.Len])
					}
				}
			}
			if !bytes.Equal(seg.Local(), want) {
				t.Error("segment bytes differ from the gathered list")
			}
		})
	}
}

package sci

import (
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
	descs := []pack.Descriptor{{SrcOff: 0, DstOff: 0, Len: size}}
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
	pio := run(func(p *sim.Proc, m *Mapping, _ int) { m.WriteStream(p, 0, src, 0) })
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
			req.done.OnComplete(func(any) { done[i] = e.Now() })
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

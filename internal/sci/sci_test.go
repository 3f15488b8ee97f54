package sci

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// testCluster builds an engine plus an interconnect of n nodes.
func testCluster(n int) (*sim.Engine, *Interconnect) {
	e := sim.NewEngine()
	return e, New(e, DefaultConfig(n))
}

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 3)
	}
	return b
}

// must fails the calling process on a fault the test does not expect.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

func TestWriteStreamDeliversAfterBarrier(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(4096)
	src := fill(1024)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		must(m.WriteStream(p, 100, src, 0))
		ic.Node(0).StoreBarrier(p)
		if !bytes.Equal(seg.Local()[100:1124], src) {
			t.Error("data not delivered after store barrier")
		}
	})
	e.Run()
}

func TestWriteVisibilityDelayedUntilWireLatency(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(64)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		must(m.WriteWord(p, 0, []byte{0xAB}))
		// Immediately after the posted write the data is still in flight.
		if seg.Local()[0] == 0xAB {
			t.Error("posted write visible before wire latency")
		}
		p.Sleep(ic.Cfg.PIOWriteLatency + time.Microsecond)
		if seg.Local()[0] != 0xAB {
			t.Error("posted write not visible after wire latency")
		}
	})
	e.Run()
}

func TestWriteStreamBandwidthNearPeak(t *testing.T) {
	e, ic := testCluster(2)
	const n = 4 << 20
	seg := ic.Node(1).Export(n)
	src := make([]byte, n)
	var elapsed time.Duration
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		start := p.Now()
		must(m.WriteStream(p, 0, src, 0))
		elapsed = p.Now() - start
	})
	e.Run()
	bw := float64(n) / elapsed.Seconds() / MiB
	// Large contiguous PIO writes approach the configured peak (225 MiB/s).
	if bw < 200 || bw > 230 {
		t.Errorf("large sequential write bandwidth = %.1f MiB/s, want ~225", bw)
	}
}

func TestSourceCacheDipForHugeWorkingSet(t *testing.T) {
	e, ic := testCluster(2)
	const n = 4 << 20
	seg := ic.Node(1).Export(n)
	src := make([]byte, n)
	var fast, slow time.Duration
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		start := p.Now()
		must(m.WriteStream(p, 0, src, 64<<10)) // cached source
		fast = p.Now() - start
		start = p.Now()
		must(m.WriteStream(p, 0, src, 8<<20)) // DRAM source
		slow = p.Now() - start
	})
	e.Run()
	if slow <= fast {
		t.Errorf("DRAM-sourced write (%v) not slower than cached write (%v)", slow, fast)
	}
}

func TestReadSlowerThanWrite(t *testing.T) {
	e, ic := testCluster(2)
	const n = 256 << 10
	seg := ic.Node(1).Export(n)
	src := make([]byte, n)
	dst := make([]byte, n)
	var wTime, rTime time.Duration
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		start := p.Now()
		must(m.WriteStream(p, 0, src, 0))
		ic.Node(0).StoreBarrier(p)
		wTime = p.Now() - start
		start = p.Now()
		must(m.Read(p, 0, dst))
		rTime = p.Now() - start
	})
	e.Run()
	if rTime < 5*wTime {
		t.Errorf("remote read (%v) should be far slower than write (%v)", rTime, wTime)
	}
}

func TestSmallReadLatency(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(64)
	var lat time.Duration
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		dst := make([]byte, 8)
		start := p.Now()
		must(m.Read(p, 0, dst))
		lat = p.Now() - start
	})
	e.Run()
	// A small remote read stalls for roughly one transaction: a few µs.
	if lat < 2*time.Microsecond || lat > 10*time.Microsecond {
		t.Errorf("8-byte remote read latency = %v, want a few µs", lat)
	}
}

func TestStridedWriteAlignmentSensitivity(t *testing.T) {
	cfg := DefaultConfig(2)
	aligned := cfg.StridedWriteBW(256, 512) // 512 % 32 == 0
	worst := cfg.StridedWriteBW(256, 520)   // misaligned
	if math.Abs(aligned-162*MiB) > 2*MiB {
		t.Errorf("aligned 256B strided bw = %.1f MiB/s, want ~162 (paper §4.3)", aligned/MiB)
	}
	if math.Abs(worst-7*MiB) > 1*MiB {
		t.Errorf("worst 256B strided bw = %.1f MiB/s, want ~7 (paper §4.3)", worst/MiB)
	}
	a8 := cfg.StridedWriteBW(8, 32)
	w8 := cfg.StridedWriteBW(8, 40)
	if math.Abs(a8-28*MiB) > 1*MiB || math.Abs(w8-5*MiB) > 1*MiB {
		t.Errorf("8B strided bw = %.1f / %.1f MiB/s, want ~28 / ~5", a8/MiB, w8/MiB)
	}
}

func TestWriteCombineDisabledFlattensStrideSensitivity(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.WriteCombine = false
	a := cfg.StridedWriteBW(256, 512)
	b := cfg.StridedWriteBW(256, 520)
	if a != b {
		t.Errorf("WC off: stride sensitivity remains (%g vs %g)", a, b)
	}
	on := DefaultConfig(2)
	if a >= on.StridedWriteBW(256, 512) {
		t.Errorf("WC off bandwidth %g not below WC-on aligned %g", a, on.StridedWriteBW(256, 512))
	}
	if a <= on.StridedWriteBW(256, 520) {
		t.Errorf("WC off bandwidth %g not above WC-on worst case %g", a, on.StridedWriteBW(256, 520))
	}
}

func TestWriteStridedScattersData(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1024)
	src := fill(64)
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		must(m.WriteStrided(p, 0, src, 16, 32))
		ic.Node(0).StoreBarrier(p)
	})
	e.Run()
	buf := seg.Local()
	for i := 0; i < 4; i++ {
		got := buf[i*32 : i*32+16]
		want := src[i*16 : (i+1)*16]
		if !bytes.Equal(got, want) {
			t.Fatalf("access %d: got %v want %v", i, got, want)
		}
		gap := buf[i*32+16 : (i+1)*32]
		for _, b := range gap {
			if b != 0 {
				t.Fatalf("access %d wrote into the gap", i)
			}
		}
	}
}

func TestReadStridedGathers(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1024)
	// Owner lays out strided data locally.
	for i := 0; i < 4; i++ {
		copy(seg.Local()[i*64:], fill(16)[:16])
	}
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		dst := make([]byte, 64)
		must(m.ReadStrided(p, 0, dst, 16, 64))
		for i := 0; i < 4; i++ {
			if !bytes.Equal(dst[i*16:(i+1)*16], fill(16)) {
				t.Fatalf("gathered access %d mismatch", i)
			}
		}
	})
	e.Run()
}

func TestBlockWriterEquivalenceAndCost(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	var smallCost, bigCost time.Duration
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		// Write 256 kiB as 8-byte blocks vs as 4-kiB blocks.
		total := 256 << 10
		data := fill(total)
		start := p.Now()
		w := m.NewBlockWriter(p, int64(total))
		for off := 0; off < total; off += 8 {
			w.Write(int64(off), data[off:off+8])
		}
		if err := w.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
		smallCost = p.Now() - start
		if !bytes.Equal(seg.Local()[:total], data) {
			t.Error("block-written data mismatch")
		}
		start = p.Now()
		w = m.NewBlockWriter(p, int64(total))
		for off := 0; off < total; off += 4096 {
			w.Write(int64(off), data[off:off+4096])
		}
		if err := w.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
		bigCost = p.Now() - start
	})
	e.Run()
	if smallCost < 4*bigCost {
		t.Errorf("8B-block remote pack (%v) should be much slower than 4kiB blocks (%v)", smallCost, bigCost)
	}
}

func TestDMATransfer(t *testing.T) {
	e, ic := testCluster(2)
	const n = 1 << 20
	seg := ic.Node(1).Export(n)
	src := fill(n)
	var submitCost, totalCost time.Duration
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		start := p.Now()
		req := m.DMAWrite(p, 0, src)
		submitCost = p.Now() - start
		if err := req.Wait(p); err != nil {
			t.Errorf("DMA transfer failed: %v", err)
		}
		totalCost = p.Now() - start
		if !bytes.Equal(seg.Local()[:n], src) {
			t.Error("DMA data mismatch")
		}
	})
	e.Run()
	if submitCost > 5*time.Microsecond {
		t.Errorf("DMA submission cost %v, want cheap (<5µs)", submitCost)
	}
	bw := float64(n) / totalCost.Seconds() / MiB
	if bw > 85 || bw < 60 {
		t.Errorf("DMA bandwidth %.1f MiB/s, want <=85 and near it", bw)
	}
}

func TestTwoSendersShareTargetIngress(t *testing.T) {
	e, ic := testCluster(4)
	const n = 8 << 20
	seg := ic.Node(3).Export(2 * n)
	var t1, t2 time.Duration
	e.Go("a", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(3, seg.ID())
		start := p.Now()
		must(m.WriteStream(p, 0, make([]byte, n), 0))
		t1 = p.Now() - start
	})
	e.Go("b", func(p *sim.Proc) {
		m := ic.Node(1).MustImport(3, seg.ID())
		start := p.Now()
		must(m.WriteStream(p, n, make([]byte, n), 0))
		t2 = p.Now() - start
	})
	e.Run()
	solo := float64(n) / (225 * MiB)
	// Sharing the target's ingress, each should take roughly twice as long
	// as alone.
	for _, d := range []time.Duration{t1, t2} {
		if d.Seconds() < 1.7*solo {
			t.Errorf("concurrent write finished in %v; expected ingress sharing to slow it (solo %.3fs)", d, solo)
		}
	}
}

func TestFaultInjectionPreservesDataAndAddsRetries(t *testing.T) {
	e := sim.NewEngine()
	cfg := DefaultConfig(2)
	cfg.Fault = fault.New(1).WithRetries(0.2)
	ic := New(e, cfg)
	seg := ic.Node(1).Export(1 << 20)
	src := fill(1 << 20)
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		for i := 0; i < 64; i++ {
			must(m.WriteStream(p, int64(i)*16384, src[i*16384:(i+1)*16384], 0))
		}
		ic.Node(0).StoreBarrier(p)
	})
	e.Run()
	if !bytes.Equal(seg.Local(), src) {
		t.Error("fault injection corrupted delivered data")
	}
	if ic.Node(0).Snapshot().Retries == 0 {
		t.Error("no retries recorded at 20% fault rate over 64 transfers")
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() int64 {
		e := sim.NewEngine()
		cfg := DefaultConfig(2)
		cfg.Fault = fault.New(1).WithRetries(0.3)
		ic := New(e, cfg)
		seg := ic.Node(1).Export(1 << 16)
		e.Go("p", func(p *sim.Proc) {
			m := ic.Node(0).MustImport(1, seg.ID())
			for i := 0; i < 100; i++ {
				must(m.WriteStream(p, 0, make([]byte, 4096), 0))
			}
		})
		e.Run()
		return ic.Node(0).Snapshot().Retries
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("retry counts differ across identical runs: %d vs %d", a, b)
	}
}

func TestImportErrors(t *testing.T) {
	_, ic := testCluster(2)
	if _, err := ic.Node(0).Import(5, 0); err == nil {
		t.Error("import from unknown node succeeded")
	}
	if _, err := ic.Node(0).Import(1, 99); err == nil {
		t.Error("import of unknown segment succeeded")
	}
	seg := ic.Node(1).Export(16)
	m, err := ic.Node(0).Import(1, seg.ID())
	if err != nil {
		t.Fatalf("valid import failed: %v", err)
	}
	ic.RevokeSegment(1, seg.ID())
	if _, err := ic.Node(0).Import(1, seg.ID()); err == nil {
		t.Error("import of revoked segment succeeded")
	}
	if !m.seg.revoked {
		t.Error("mapping made before the revocation is still valid")
	}
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(16)
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		var oor ErrOutOfRange
		if err := m.WriteStream(p, 8, make([]byte, 16), 0); !errors.As(err, &oor) {
			t.Errorf("out-of-range write: got %v, want ErrOutOfRange", err)
		} else if oor != (ErrOutOfRange{Off: 8, Len: 16, Size: 16}) {
			t.Errorf("out-of-range write: error = %+v", oor)
		}
	})
	e.Run()
	if seg.mem.Resident() {
		t.Error("the refused write materialised the segment")
	}
}

func TestLocalMappingIsImmediate(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(0).Export(64)
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(0, seg.ID())
		if m.Remote() {
			t.Error("self-import reported remote")
		}
		must(m.WriteWord(p, 0, []byte{7}))
		if seg.Local()[0] != 7 {
			t.Error("local write not immediately visible")
		}
	})
	e.Run()
}

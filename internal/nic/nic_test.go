package nic

import (
	"bytes"
	"testing"
	"time"

	"scimpich/internal/memmodel"
	"scimpich/internal/sim"
)

func testNet(nodes int) (*sim.Engine, *Network) {
	e := sim.NewEngine()
	return e, New(e, nodes, FastEthernet())
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 4096)
	src := make([]byte, 1024)
	for i := range src {
		src[i] = byte(i)
	}
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		v.WriteStream(p, 100, src, 0)
		v.Sync(p)
		if !bytes.Equal(b.Bytes()[100:1124], src) {
			t.Error("write did not arrive")
		}
		dst := make([]byte, 1024)
		v.Read(p, 100, dst)
		if !bytes.Equal(dst, src) {
			t.Error("read mismatch")
		}
	})
	e.Run()
}

func TestWriteVisibilityDelayedByWireLatency(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 64)
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		v.WriteStream(p, 0, []byte{0xCC}, 0)
		if b.Bytes()[0] == 0xCC {
			t.Error("message visible before the wire latency")
		}
		p.Sleep(n.Cfg.Latency + time.Microsecond)
		if b.Bytes()[0] != 0xCC {
			t.Error("message not visible after the wire latency")
		}
	})
	e.Run()
}

func TestReadCostsRoundTrip(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 64)
	var lat time.Duration
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		start := p.Now()
		v.Read(p, 0, make([]byte, 8))
		lat = p.Now() - start
	})
	e.Run()
	if lat < 2*n.Cfg.Latency {
		t.Errorf("read latency %v below one round trip (%v)", lat, 2*n.Cfg.Latency)
	}
}

func TestBandwidthLimitedByWire(t *testing.T) {
	e, n := testNet(2)
	const sz = 1 << 20
	b := n.Alloc(1, sz)
	var elapsed time.Duration
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		start := p.Now()
		v.WriteStream(p, 0, make([]byte, sz), 0)
		v.Sync(p)
		elapsed = p.Now() - start
	})
	e.Run()
	bw := float64(sz) / elapsed.Seconds() / (1 << 20)
	if bw > 11.5 || bw < 9 {
		t.Errorf("fast-ethernet bandwidth = %.1f MiB/s, want ~11", bw)
	}
}

func TestBlockWriterStagesLocallyAndShipsOnce(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 4096)
	var elapsed time.Duration
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		w := v.NewBlockWriter(p, 4096)
		for off := int64(0); off < 2048; off += 64 {
			blk := bytes.Repeat([]byte{byte(off / 64)}, 32)
			w.Write(off, blk)
		}
		start := p.Now()
		w.Flush()
		v.Sync(p)
		elapsed = p.Now() - start
		for i := int64(0); i < 2048; i += 64 {
			if b.Bytes()[i] != byte(i/64) {
				t.Fatalf("staged block at %d missing", i)
			}
		}
	})
	e.Run()
	// 1 kiB of staged blocks must ship as ONE message: one latency plus
	// the wire time, not 32 latencies.
	wire := time.Duration(1024 / n.Cfg.Bandwidth * 1e9)
	budget := n.Cfg.Latency + wire + n.Cfg.PerMessageCPU + 20*time.Microsecond
	if elapsed > budget {
		t.Errorf("flush took %v, want single-message cost (~%v)", elapsed, budget)
	}
}

func TestNICContention(t *testing.T) {
	// Two senders into one receiver share the receiver's ingress.
	e, n := testNet(3)
	const sz = 4 << 20
	b := n.Alloc(2, 2*sz)
	var t0, t1 time.Duration
	e.Go("a", func(p *sim.Proc) {
		v := n.View(0, b)
		start := p.Now()
		v.WriteStream(p, 0, make([]byte, sz), 0)
		t0 = p.Now() - start
	})
	e.Go("b", func(p *sim.Proc) {
		v := n.View(1, b)
		start := p.Now()
		v.WriteStream(p, sz, make([]byte, sz), 0)
		t1 = p.Now() - start
	})
	e.Run()
	solo := time.Duration(float64(sz) / n.Cfg.Bandwidth * 1e9)
	for _, d := range []time.Duration{t0, t1} {
		if d < time.Duration(1.8*float64(solo)) {
			t.Errorf("concurrent send took %v, want ~2x solo %v (ingress shared)", d, solo)
		}
	}
}

func TestWriteStridedScatters(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 1024)
	src := make([]byte, 128)
	for i := range src {
		src[i] = byte(i + 1)
	}
	e.Go("p", func(p *sim.Proc) {
		v := n.View(0, b)
		v.WriteStrided(p, 0, src, 16, 32)
		v.Sync(p)
		dst := make([]byte, 128)
		memmodel.Gather(dst, b.Bytes(), 16, 32)
		if !bytes.Equal(dst, src) {
			t.Error("strided write did not land 16-byte accesses 32 apart")
		}
	})
	e.Run()
}

package shmem

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"scimpich/internal/memmodel"
	"scimpich/internal/sim"
)

func testBus() (*sim.Engine, *Bus) {
	e := sim.NewEngine()
	return e, &NewBuses(e, nil, 1, DefaultConfig())[0]
}

func fill(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*13 + 1)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(4096)
	src := fill(1024)
	e.Go("p", func(p *sim.Proc) {
		r.WriteStream(p, 100, src, 0)
		dst := make([]byte, 1024)
		r.Read(p, 100, dst)
		if !bytes.Equal(dst, src) {
			t.Error("round trip mismatch")
		}
	})
	e.Run()
}

func TestWriteStridedScatters(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(4096)
	src := fill(256)
	e.Go("p", func(p *sim.Proc) {
		r.WriteStrided(p, 0, src, 32, 64)
		dst := make([]byte, 256)
		memmodel.Gather(dst, r.Local(), 32, 64)
		if !bytes.Equal(dst, src) {
			t.Error("strided write did not land 32-byte accesses 64 apart")
		}
	})
	e.Run()
}

func TestCopySpeedDependsOnWorkingSet(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(1 << 20)
	src := make([]byte, 4096)
	var small, big time.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		r.WriteStream(p, 0, src, 8<<10)
		small = p.Now() - start
		start = p.Now()
		r.WriteStream(p, 0, src, 4<<20)
		big = p.Now() - start
	})
	e.Run()
	if big <= small {
		t.Errorf("DRAM-resident copy (%v) not slower than cache-resident (%v)", big, small)
	}
}

func TestBusContention(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(64 << 20)
	const n = 16 << 20
	var solo, shared time.Duration
	e.Go("warm", func(p *sim.Proc) {
		start := p.Now()
		r.WriteStream(p, 0, make([]byte, n), 32<<20)
		solo = p.Now() - start
	})
	e.Run()

	e2 := sim.NewEngine()
	b2 := &NewBuses(e2, nil, 1, DefaultConfig())[0]
	r2 := b2.Alloc(64 << 20)
	for i := 0; i < 2; i++ {
		off := int64(i) * n
		e2.Go("w", func(p *sim.Proc) {
			start := p.Now()
			r2.WriteStream(p, off, make([]byte, n), 32<<20)
			if d := p.Now() - start; d > shared {
				shared = d
			}
		})
	}
	e2.Run()
	if shared <= solo {
		t.Errorf("two concurrent writers (%v) not slower than one (%v)", shared, solo)
	}
}

func TestBlockWriterMatchesDataAndChargesMore(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(1 << 20)
	total := 256 << 10
	data := fill(total)
	var tiny, contiguous time.Duration
	e.Go("p", func(p *sim.Proc) {
		start := p.Now()
		w := r.NewBlockWriter(p, int64(total))
		for off := 0; off < total; off += 16 {
			w.Write(int64(off), data[off:off+16])
		}
		w.Flush()
		tiny = p.Now() - start
		if !bytes.Equal(r.Local()[:total], data) {
			t.Error("block writer data mismatch")
		}
		start = p.Now()
		r.WriteStream(p, 0, data, int64(total))
		contiguous = p.Now() - start
	})
	e.Run()
	if tiny <= contiguous {
		t.Errorf("16B-block pack (%v) should cost more than one contiguous copy (%v)", tiny, contiguous)
	}
}

// TestOutOfRangePanics: an access past the region's end panics with the
// named shmem message, also one whose end would wrap past math.MaxInt64.
func TestOutOfRangePanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		access func(p *sim.Proc, r *Region)
		want   string
	}{
		{"read", func(p *sim.Proc, r *Region) { r.Read(p, 10, make([]byte, 10)) },
			"shmem: access [10, 20) outside region of 16 bytes"},
		{"write-near-max-offset", func(p *sim.Proc, r *Region) { r.WriteStream(p, math.MaxInt64-4, make([]byte, 10), 0) },
			"shmem: access [9223372036854775803, "},
	} {
		e, b := testBus()
		r := b.Alloc(16)
		e.Go("p", func(p *sim.Proc) {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, c.want) {
					t.Errorf("%s: panicked with %q, want %q...", c.name, msg, c.want)
				}
			}()
			c.access(p, r)
		})
		e.Run()
	}
}

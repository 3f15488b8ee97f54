package memmodel

import (
	"bytes"
	"testing"
	"time"
)

func TestCopyBWByWorkingSet(t *testing.T) {
	m := PentiumIII800()
	if bw := m.CopyBW(8 << 10); bw != m.L1CopyBW {
		t.Errorf("8kiB working set bw = %g, want L1 %g", bw, m.L1CopyBW)
	}
	if bw := m.CopyBW(128 << 10); bw != m.L2CopyBW {
		t.Errorf("128kiB working set bw = %g, want L2 %g", bw, m.L2CopyBW)
	}
	if bw := m.CopyBW(1 << 20); bw != m.MemCopyBW {
		t.Errorf("1MiB working set bw = %g, want mem %g", bw, m.MemCopyBW)
	}
}

func TestCopyCostMonotoneInBlockCount(t *testing.T) {
	m := PentiumIII800()
	total := int64(256 << 10)
	small := m.CopyCost(total, 8, 1<<20)
	large := m.CopyCost(total, 8192, 1<<20)
	if small <= large {
		t.Errorf("8B-block copy (%v) should cost more than 8kiB-block copy (%v)", small, large)
	}
}

func TestCopyCostZeroAndDegenerate(t *testing.T) {
	m := PentiumIII800()
	if c := m.CopyCost(0, 8, 100); c != 0 {
		t.Errorf("zero-byte copy cost = %v, want 0", c)
	}
	// blockSize <= 0 or > total treated as one block.
	one := m.CopyCost(100, 0, 100)
	alt := m.CopyCost(100, 1000, 100)
	if one != alt {
		t.Errorf("degenerate block sizes disagree: %v vs %v", one, alt)
	}
	if one < m.BlockOverhead {
		t.Errorf("single-block copy %v below one block overhead %v", one, m.BlockOverhead)
	}
}

func TestFFCacheBonusOnlyInCacheRegime(t *testing.T) {
	m := PentiumIII800()
	// In-cache: bonus applies, so FF copy is faster than plain copy.
	plain := m.CopyCost(64<<10, 512, 128<<10)
	ff := m.BlockCopyCostFF(64<<10, 512, 128<<10)
	if ff >= plain {
		t.Errorf("FF in-cache copy %v not faster than plain %v", ff, plain)
	}
	// Out of cache: identical.
	plain = m.CopyCost(1<<20, 512, 4<<20)
	ff = m.BlockCopyCostFF(1<<20, 512, 4<<20)
	if ff != plain {
		t.Errorf("FF out-of-cache copy %v != plain %v", ff, plain)
	}
}

func TestEffectiveSourceBWDip(t *testing.T) {
	m := PentiumIII800()
	device := 240e6
	inCache := m.EffectiveSourceBW(device, 64<<10)
	if inCache != device {
		t.Errorf("in-cache source bw = %g, want device %g", inCache, device)
	}
	big := m.EffectiveSourceBW(1e9, 1<<20)
	if big >= 1e9 {
		t.Errorf("out-of-cache source bw = %g, want below device rate", big)
	}
	if big != m.MemCopyBW*0.55 {
		t.Errorf("out-of-cache source bw = %g, want %g", big, m.MemCopyBW*0.55)
	}
	// The dip also caps a realistic PIO device rate (the paper's Figure 1
	// bandwidth drop beyond 128 kiB).
	if got := m.EffectiveSourceBW(device, 1<<20); got >= device {
		t.Errorf("PIO source bw at 1MiB working set = %g, want below %g", got, device)
	}
}

func TestCopyCostScalesWithBytes(t *testing.T) {
	m := PentiumIII800()
	c1 := m.CopyCost(1<<20, 4096, 8<<20)
	c2 := m.CopyCost(2<<20, 4096, 8<<20)
	ratio := float64(c2) / float64(c1)
	if ratio < 1.9 || ratio > 2.1 {
		t.Errorf("doubling bytes scaled cost by %.2f, want ~2", ratio)
	}
	_ = time.Duration(0)
}

func TestStridedAccessAndScatterGather(t *testing.T) {
	// 10 bytes as 4-byte accesses 8 apart: 4+4+2, the last access short.
	a := StridedAccess(10, 4, 8)
	if a != (Strided{Access: 4, Stride: 8, Accesses: 3, Span: 18}) {
		t.Errorf("StridedAccess(10, 4, 8) = %+v", a)
	}
	// Degenerate arguments mean one dense access.
	if a := StridedAccess(10, 0, 0); a != (Strided{Access: 10, Stride: 10, Accesses: 1, Span: 10}) {
		t.Errorf("StridedAccess(10, 0, 0) = %+v", a)
	}
	if a := StridedAccess(10, 4, 2); a.Stride != 4 || a.Span != 10 {
		t.Errorf("stride below the access size must mean dense: %+v", a)
	}
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	mem := make([]byte, 18)
	Scatter(mem, src, 4, 8)
	want := []byte{1, 2, 3, 4, 0, 0, 0, 0, 5, 6, 7, 8, 0, 0, 0, 0, 9, 10}
	if !bytes.Equal(mem, want) {
		t.Errorf("Scatter = %v, want %v", mem, want)
	}
	back := make([]byte, 10)
	Gather(back, mem, 4, 8)
	if !bytes.Equal(back, src) {
		t.Errorf("Gather = %v, want %v", back, src)
	}
}

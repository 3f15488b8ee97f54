package sci

import (
	"bytes"
	"errors"
	"testing"

	"scimpich/internal/sim"
)

// Exported memory is materialised on first access: until then a segment
// knows its size and rejects bad accesses, but holds no host memory.

func TestFirstTouchSizeAndRangeNeedNoMemory(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	m := ic.Node(0).MustImport(1, seg.ID())
	if seg.Size() != 1<<20 {
		t.Fatalf("size = %d before any access, want %d", seg.Size(), 1<<20)
	}
	e.Go("p", func(p *sim.Proc) {
		var oor ErrOutOfRange
		if err := m.WriteStream(p, 1<<20-8, make([]byte, 16), 0); !errors.As(err, &oor) {
			t.Errorf("out-of-range write: got %v, want ErrOutOfRange", err)
		} else if oor.Size != 1<<20 {
			t.Errorf("ErrOutOfRange.Size = %d, want %d", oor.Size, 1<<20)
		}
		if err := m.Read(p, -1, make([]byte, 4)); !errors.As(err, &oor) {
			t.Errorf("out-of-range read: got %v, want ErrOutOfRange", err)
		}
	})
	e.Run()
	if seg.mem.Resident() {
		t.Error("size and range checks materialised the segment")
	}
}

func TestFirstTouchReadBeforeWriteIsZero(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(4096)
	e.Go("p", func(p *sim.Proc) {
		dst := fill(64)
		must(ic.Node(0).MustImport(1, seg.ID()).Read(p, 1000, dst))
		if !bytes.Equal(dst, make([]byte, 64)) {
			t.Error("remote read of untouched memory is not zero")
		}
		dst = fill(64)
		must(ic.Node(1).MustImport(1, seg.ID()).ReadStrided(p, 0, dst, 8, 32))
		if !bytes.Equal(dst, make([]byte, 64)) {
			t.Error("local strided read of untouched memory is not zero")
		}
	})
	e.Run()
	if !seg.mem.Resident() || int64(len(seg.Local())) != seg.Size() {
		t.Error("a read did not materialise the whole segment")
	}
}

func TestFirstTouchFailedAccessNeedsNoMemory(t *testing.T) {
	e, ic := testCluster(3)
	revoked := ic.Node(1).Export(1 << 20)
	orphan := ic.Node(2).Export(1 << 20)
	mr := ic.Node(0).MustImport(1, revoked.ID())
	mo := ic.Node(0).MustImport(2, orphan.ID())
	ic.RevokeSegment(1, revoked.ID())
	ic.FailNode(2)
	e.Go("p", func(p *sim.Proc) {
		var lost ErrSegmentLost
		if err := mr.WriteStream(p, 0, fill(64), 0); !errors.As(err, &lost) {
			t.Errorf("write to revoked segment: got %v, want ErrSegmentLost", err)
		}
		if err := mr.Read(p, 0, make([]byte, 64)); !errors.As(err, &lost) {
			t.Errorf("read of revoked segment: got %v, want ErrSegmentLost", err)
		}
		bw := mr.NewBlockWriter(p, 64)
		bw.Write(0, fill(64))
		if err := bw.Flush(); !errors.As(err, &lost) {
			t.Errorf("block write to revoked segment: got %v, want ErrSegmentLost", err)
		}
		var conn ErrConnectionLost
		if err := mo.WriteStream(p, 0, fill(64), 0); !errors.As(err, &conn) {
			t.Errorf("write to dead owner: got %v, want ErrConnectionLost", err)
		}
		if err := mo.WritePut(p, 0, fill(64), 8, 16); !errors.As(err, &conn) {
			t.Errorf("put to dead owner: got %v, want ErrConnectionLost", err)
		}
		if err := mo.Read(p, 0, make([]byte, 64)); !errors.As(err, &conn) {
			t.Errorf("read from dead owner: got %v, want ErrConnectionLost", err)
		}
	})
	e.Run()
	if revoked.mem.Resident() {
		t.Error("failed accesses materialised the revoked segment")
	}
	if orphan.mem.Resident() {
		t.Error("failed accesses materialised the dead owner's segment")
	}
}

func TestExportBufferAliasesCallerMemory(t *testing.T) {
	e, ic := testCluster(2)
	buf := make([]byte, 256)
	seg := ic.Node(1).ExportBuffer(buf)
	if seg.Size() != 256 {
		t.Fatalf("size = %d, want 256", seg.Size())
	}
	e.Go("p", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		must(m.WriteStream(p, 16, fill(32), 0))
		ic.Node(0).StoreBarrier(p)
		if !bytes.Equal(buf[16:48], fill(32)) {
			t.Error("remote write did not land in the caller's buffer")
		}
		buf[100] = 0x5A
		var b [1]byte
		must(m.Read(p, 100, b[:]))
		if b[0] != 0x5A {
			t.Error("remote read does not see the caller's store")
		}
	})
	e.Run()
	if &seg.Local()[0] != &buf[0] {
		t.Error("Local is not the caller's buffer")
	}
}

package nic

import (
	"bytes"
	"testing"

	"scimpich/internal/sim"
)

// A buffer is materialised on first access: until then it knows its size
// and rejects bad accesses, but holds no host memory.
func TestFirstTouch(t *testing.T) {
	e, n := testNet(2)
	b := n.Alloc(1, 1<<20)
	v := n.View(0, b)
	if v.Size() != 1<<20 {
		t.Fatalf("size = %d before any access, want %d", v.Size(), 1<<20)
	}
	e.Go("range", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range write did not panic")
			}
			if b.mem.Resident() {
				t.Error("size and range checks materialised the buffer")
			}
		}()
		v.WriteStream(p, 1<<20-8, make([]byte, 16), 0)
	})
	e.Run()

	e.Go("read", func(p *sim.Proc) {
		dst := bytes.Repeat([]byte{0xEE}, 64)
		v.Read(p, 1000, dst)
		if !bytes.Equal(dst, make([]byte, 64)) {
			t.Error("remote read of untouched memory is not zero")
		}
	})
	e.Run()
	if !b.mem.Resident() || int64(len(b.Bytes())) != v.Size() {
		t.Error("a read did not materialise the whole buffer")
	}
}

func TestAllocBackedAliasesCallerMemory(t *testing.T) {
	e, n := testNet(2)
	buf := make([]byte, 256)
	b := n.AllocBacked(1, buf)
	v := n.View(0, b)
	if v.Size() != 256 {
		t.Fatalf("size = %d, want 256", v.Size())
	}
	src := bytes.Repeat([]byte{0xA7}, 32)
	e.Go("p", func(p *sim.Proc) {
		v.WriteStream(p, 16, src, 0)
		v.Sync(p)
		if !bytes.Equal(buf[16:48], src) {
			t.Error("remote write did not land in the caller's buffer")
		}
	})
	e.Run()
	if &b.Bytes()[0] != &buf[0] {
		t.Error("Bytes is not the caller's buffer")
	}
}

package shmem

import (
	"bytes"
	"testing"

	"scimpich/internal/sim"
)

// A region is materialised on first access: until then it knows its size
// and rejects bad accesses, but holds no host memory.
func TestFirstTouch(t *testing.T) {
	e, b := testBus()
	r := b.Alloc(1 << 20)
	if r.Size() != 1<<20 {
		t.Fatalf("size = %d before any access, want %d", r.Size(), 1<<20)
	}
	e.Go("range", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("out-of-range write did not panic")
			}
			if r.mem.Resident() {
				t.Error("size and range checks materialised the region")
			}
		}()
		r.WriteStream(p, 1<<20-8, make([]byte, 16), 0)
	})
	e.Run()

	e.Go("read", func(p *sim.Proc) {
		dst := fill(64)
		r.Read(p, 1000, dst)
		if !bytes.Equal(dst, make([]byte, 64)) {
			t.Error("read of untouched memory is not zero")
		}
	})
	e.Run()
	if !r.mem.Resident() || int64(len(r.Local())) != r.Size() {
		t.Error("a read did not materialise the whole region")
	}
}

func TestAllocBackedAliasesCallerMemory(t *testing.T) {
	e, b := testBus()
	buf := make([]byte, 256)
	r := b.AllocBacked(buf)
	if r.Size() != 256 {
		t.Fatalf("size = %d, want 256", r.Size())
	}
	e.Go("p", func(p *sim.Proc) {
		r.WriteStream(p, 16, fill(32), 0)
		if !bytes.Equal(buf[16:48], fill(32)) {
			t.Error("write did not land in the caller's buffer")
		}
	})
	e.Run()
	if &r.Local()[0] != &buf[0] {
		t.Error("Local is not the caller's buffer")
	}
}

package bufpool

import (
	"testing"

	"scimpich/internal/allocwin"
)

func TestGetLenAndRecycle(t *testing.T) {
	b := Get(1000)
	if len(b.B) != 1000 {
		t.Fatalf("len = %d, want 1000", len(b.B))
	}
	if cap(b.B) != 1024 {
		t.Fatalf("cap = %d, want size class 1024", cap(b.B))
	}
	b.B[999] = 0xAB
	b.Put()
	// The next same-class Get must reuse the buffer (single goroutine, no
	// GC pressure in between) — except under the race detector, where
	// sync.Pool drops Puts at random.
	c := Get(600)
	if cap(c.B) != 1024 {
		t.Fatalf("recycled cap = %d, want 1024", cap(c.B))
	}
	if len(c.B) != 600 {
		t.Fatalf("recycled len = %d, want 600", len(c.B))
	}
	if !allocwin.RaceEnabled && c.B[999:1000][0] != 0xAB {
		t.Fatal("expected the recycled backing array (stale bytes preserved)")
	}
	c.Put()
}

func TestTinyAndOversizedRequests(t *testing.T) {
	tiny := Get(1)
	if len(tiny.B) != 1 || cap(tiny.B) != 1<<minBits {
		t.Fatalf("tiny: len=%d cap=%d", len(tiny.B), cap(tiny.B))
	}
	tiny.Put()

	big := Get((4 << 20) + 1)
	if big.class != unpooled {
		t.Fatalf("oversized request should be unpooled, class=%d", big.class)
	}
	if len(big.B) != (4<<20)+1 {
		t.Fatalf("oversized len = %d", len(big.B))
	}
	big.Put() // must not panic
}

func TestClone(t *testing.T) {
	src := []byte{1, 2, 3, 4, 5}
	b := Clone(src)
	src[0] = 99 // clone must be independent
	if b.B[0] != 1 || len(b.B) != 5 {
		t.Fatalf("clone = %v", b.B)
	}
	b.Put()
}

func TestNilPut(t *testing.T) {
	var b *Buf
	b.Put() // no-op
}

func TestClassFor(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 256}, {1, 256}, {256, 256}, {257, 512},
		{512, 512}, {4096, 4096}, {4097, 8192}, {4 << 20, 4 << 20},
	}
	for _, tc := range cases {
		b := Get(tc.n)
		if cap(b.B) != tc.wantCap {
			t.Errorf("Get(%d): cap %d, want %d", tc.n, cap(b.B), tc.wantCap)
		}
		b.Put()
	}
}

func TestAllocsSteadyState(t *testing.T) {
	// Warm the class, then Get/Put must not allocate.
	Get(1024).Put()
	if n := testing.AllocsPerRun(100, func() {
		b := Get(1024)
		b.B[0] = 1
		b.Put()
	}); n != 0 {
		t.Errorf("Get/Put: %v allocs/op, want 0", n)
	}
}

package pack

import (
	"testing"

	"scimpich/internal/datatype"
)

// The pack hot paths must be allocation-free in steady state (mirroring
// internal/obs/alloc_test.go): a stack cursor with an inline odometer
// drives FFPack/FFUnpack/Walk, the generic engine's cursor and its move
// closure stay on the stack, and a heap Cursor is reused across chunks.
// Callers hold the Sink and the Walk callback in variables, as the
// transport layers do, so the one-time interface conversion is hoisted out
// of the measured operation.

func TestAllocsPackHotPaths(t *testing.T) {
	cases := []struct {
		name  string
		ty    *datatype.Type
		count int
	}{
		{"depth0-dense", datatype.Contiguous(64, datatype.Float64).Commit(), 4},
		{"depth0-indexed", datatype.Indexed(
			[]int{32, 32, 32}, []int{0, 48, 96}, datatype.Byte).Commit(), 4},
		{"depth1-vector", datatype.Vector(32, 4, 8, datatype.Float64).Commit(), 4},
		{"depth2-nested", datatype.Vector(8, 1, 2,
			datatype.Vector(16, 2, 4, datatype.Float64)).Commit(), 4},
	}
	for _, tc := range cases {
		ty, count := tc.ty, tc.count
		total := ty.Size() * int64(count)
		user := make([]byte, ty.Extent()*int64(count))
		packed := make([]byte, total)
		var sink Sink = BufferSink{packed}
		walkFn := func(off, size int64) {}
		cur := NewCursor(ty, count)
		chunk := total/3 + 1
		descs := make([]Descriptor, 0, 1024)
		ops := []struct {
			name string
			fn   func()
		}{
			{"FFPack", func() { FFPack(sink, user, ty, count, 0, -1) }},
			{"FFPack-skip", func() { FFPack(sink, user, ty, count, total/2, -1) }},
			{"FFUnpack", func() { FFUnpack(user, packed, ty, count, 0, -1) }},
			{"GenericPack", func() { GenericPack(packed, user, ty, count, 0, -1) }},
			{"GenericPack-skip", func() { GenericPack(packed, user, ty, count, total/2, -1) }},
			{"GenericUnpack", func() { GenericUnpack(user, packed, ty, count, 0, -1) }},
			{"Walk", func() { Walk(ty, count, walkFn) }},
			{"Cursor-chunked", func() {
				cur.Reset()
				for !cur.Done() {
					cur.Pack(sink, user, chunk)
				}
			}},
			{"Cursor-seek", func() {
				cur.SeekTo(total / 2)
				cur.Pack(sink, user, -1)
			}},
			{"Cursor-descriptors", func() {
				cur.Reset()
				for !cur.Done() {
					descs, _ = cur.Descriptors(descs[:0], chunk)
				}
			}},
		}
		for _, op := range ops {
			if n := testing.AllocsPerRun(100, op.fn); n != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", tc.name, op.name, n)
			}
		}
	}
}

package pack

import (
	"fmt"
	"testing"

	"scimpich/internal/datatype"
)

// BenchmarkCursorRuns measures the consumers of strided runs on one 64 KiB
// rendezvous chunk of Figure 7's vector (blocks of bs bytes of doubles, gaps
// of the same size): unpacking into the user buffer, building the
// run-length scatter-gather list, the DMA engine's gather of that list, and
// the generic engine packing and unpacking the second chunk (skip 64 KiB),
// as the rendezvous path's generic data engine does. Each reports ns per
// KiB of data and allocates nothing.
func BenchmarkCursorRuns(b *testing.B) {
	const chunk = 64 << 10
	for _, op := range []string{"unpack", "descriptors", "gather", "generic-pack", "generic-unpack"} {
		for _, bs := range []int64{8, 16, 128, 1024} {
			b.Run(fmt.Sprintf("%s/b%d", op, bs), func(b *testing.B) {
				ty := datatype.Vector(int(4*chunk/bs), int(bs/8), int(bs/4), datatype.Float64).Commit()
				user := make([]byte, ty.Extent())
				lin := make([]byte, chunk)
				for i := range user {
					user[i] = byte(i)
				}
				cur := NewCursor(ty, 1)
				descs, _ := cur.Descriptors(nil, chunk)
				var fn func()
				switch op {
				case "unpack":
					fn = func() {
						cur.Reset()
						cur.Unpack(user, lin, chunk)
					}
				case "descriptors":
					fn = func() {
						cur.Reset()
						descs, _ = cur.Descriptors(descs[:0], chunk)
					}
				case "gather":
					fn = func() {
						for i := range descs {
							descs[i].Gather(lin, user)
						}
					}
				case "generic-pack":
					fn = func() { GenericPack(lin, user, ty, 1, chunk, chunk) }
				case "generic-unpack":
					fn = func() { GenericUnpack(user, lin, ty, 1, chunk, chunk) }
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					fn()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(chunk>>10), "ns/KiB")
			})
		}
	}
}

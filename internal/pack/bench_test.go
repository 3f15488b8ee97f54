package pack

import (
	"fmt"
	"testing"

	"scimpich/internal/datatype"
)

// BenchmarkCursorRuns measures the consumers of strided runs on one 64 KiB
// rendezvous chunk of Figure 7's vector (blocks of bs bytes of doubles, gaps
// of the same size) and of Figure 3's vector of structs (14 B blocks of an
// int and three chars, twice, at a stride of three): unpacking into the user
// buffer, building the run-length scatter-gather list, the DMA engine's
// gather of that list, direct_pack_ff packing the second chunk (skip
// 64 KiB) into a local buffer, and the generic engine packing and unpacking
// that chunk, as the rendezvous path's generic data engine does; ff-pack
// beside generic-pack is the two engines' host CPU cost on one input. Each
// reports ns per KiB of data and allocates nothing.
func BenchmarkCursorRuns(b *testing.B) {
	const chunk = 64 << 10
	type input struct {
		name string
		ty   *datatype.Type
	}
	var inputs []input
	for _, bs := range []int64{8, 16, 128, 1024} {
		inputs = append(inputs, input{fmt.Sprintf("b%d", bs),
			datatype.Vector(int(4*chunk/bs), int(bs/8), int(bs/4), datatype.Float64).Commit()})
	}
	fig3 := datatype.Resized(datatype.StructOf(
		datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
		datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
	), 0, 8)
	inputs = append(inputs, input{"fig3", datatype.Vector(2*chunk/14+1, 2, 3, fig3).Commit()})
	for _, op := range []string{"unpack", "descriptors", "gather", "ff-pack", "generic-pack", "generic-unpack"} {
		for _, in := range inputs {
			b.Run(op+"/"+in.name, func(b *testing.B) {
				ty := in.ty
				user := make([]byte, ty.Extent())
				lin := make([]byte, chunk)
				for i := range user {
					user[i] = byte(i)
				}
				cur := NewCursor(ty, 1)
				descs, _ := cur.Descriptors(nil, chunk)
				var sink Sink = BufferSink{lin}
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
				case "ff-pack":
					fn = func() { FFPack(sink, user, ty, 1, chunk, chunk) }
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

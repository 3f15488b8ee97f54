package pack

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"scimpich/internal/datatype"
)

// runBlocks is the block-at-a-time direct_pack_ff loop the run-at-a-time
// Cursor.run replaced, kept as the reference FuzzCursorRuns checks it
// against: move(userOff, linOff, n) per contiguous block, with the same
// budget and cursor-state conventions as run.
func (c *Cursor) runBlocks(budget int64, move func(userOff, linOff, n int64)) (int64, Stats) {
	var st Stats
	if budget <= 0 {
		return 0, st
	}
	if c.dense {
		move(c.denseOff+c.off, 0, budget)
		st.add(budget)
		c.off += budget
		return budget, st
	}
	f := c.f
	var written int64
	for written < budget && c.inst < c.count {
		base := c.inst * f.Extent
		for c.leaf < len(f.Leaves) && written < budget {
			leaf := &f.Leaves[c.leaf]
			stack := leaf.Stack
			idx := c.odo()[:len(stack)]
			off := base + leaf.First
			for j := range stack {
				off += idx[j] * stack[j].Stride
			}
			n := min(leaf.Size-c.rem, budget-written)
			move(off+c.rem, written, n)
			st.add(n)
			written += n
			c.rem += n
			if c.rem < leaf.Size {
				break // budget hit mid-block
			}
			c.rem = 0
			// Odometer increment, innermost level first; the leaf is
			// exhausted when it wraps back to all zeros.
			j := len(idx) - 1
			for ; j >= 0; j-- {
				idx[j]++
				if idx[j] < stack[j].Count {
					break
				}
				idx[j] = 0
			}
			if j < 0 {
				c.leaf++
			}
		}
		if c.leaf >= len(f.Leaves) {
			c.inst++
			c.leaf, c.rem = 0, 0
		}
	}
	c.off += written
	return written, st
}

// genBlocks is the block-at-a-time generic engine that genCursor's strided
// runs replaced, kept as the reference FuzzCursorRuns checks GenericPack
// and GenericUnpack against: the same recursive walk in definition order,
// with move(userOff, outOff, n) per contiguous block.
type genBlocks struct {
	skip    int64 // bytes still to pass over before copying starts
	limit   int64 // byte budget once copying has started
	written int64
	stats   Stats
	move    func(userOff, outOff, n int64)
}

// genBlocksPack and genBlocksUnpack are GenericPack and GenericUnpack on
// the reference engine.
func genBlocksPack(dst []byte, user []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	c := &genBlocks{
		skip:  skip,
		limit: checkArgs(t, count, skip, maxBytes),
		move: func(userOff, outOff, n int64) {
			copy(dst[outOff:outOff+n], user[userOff:userOff+n])
		},
	}
	c.run(t, count)
	return c.written, c.stats
}

func genBlocksUnpack(user []byte, src []byte, t *datatype.Type, count int, skip, maxBytes int64) (int64, Stats) {
	c := &genBlocks{
		skip:  skip,
		limit: checkArgs(t, count, skip, maxBytes),
		move: func(userOff, outOff, n int64) {
			copy(user[userOff:userOff+n], src[outOff:outOff+n])
		},
	}
	c.run(t, count)
	return c.written, c.stats
}

func (c *genBlocks) done() bool { return c.written >= c.limit }

func (c *genBlocks) run(t *datatype.Type, count int) {
	// Fast path: dense instances form one contiguous run.
	if first, ok := denseRun(t.Flat()); ok {
		c.block(first, t.Size()*int64(count))
		return
	}
	for i := 0; i < count && !c.done(); i++ {
		c.walk(t, int64(i)*t.Extent())
	}
}

func (c *genBlocks) walk(t *datatype.Type, base int64) {
	if c.done() {
		return
	}
	switch t.Kind() {
	case datatype.KindBasic:
		c.block(base, t.Size())
	default:
		sz := t.Size()
		// Fast path: skip whole subtrees that fall before the start point.
		if c.written == 0 && c.skip >= sz {
			c.skip -= sz
			return
		}
		c.walkChildren(t, base)
	}
}

func (c *genBlocks) walkChildren(t *datatype.Type, base int64) {
	switch t.Kind() {
	case datatype.KindContiguous:
		elem, count := t.Elem(), t.Count()
		if elem.Kind() == datatype.KindBasic {
			c.block(base, int64(count)*elem.Size())
			return
		}
		for i := 0; i < count && !c.done(); i++ {
			c.walk(elem, base+int64(i)*elem.Extent())
		}
	case datatype.KindVector, datatype.KindHvector:
		elem := t.Elem()
		basic := elem.Kind() == datatype.KindBasic
		for i := 0; i < t.Count() && !c.done(); i++ {
			start := base + int64(i)*t.StrideBytes()
			if basic {
				c.block(start, int64(t.Blocklen())*elem.Size())
				continue
			}
			for j := 0; j < t.Blocklen() && !c.done(); j++ {
				c.walk(elem, start+int64(j)*elem.Extent())
			}
		}
	case datatype.KindIndexed, datatype.KindHindexed:
		elem := t.Elem()
		basic := elem.Kind() == datatype.KindBasic
		lens, displs := t.Blocklens(), t.Displs()
		for i := range lens {
			start := base + displs[i]
			if basic {
				c.block(start, int64(lens[i])*elem.Size())
				continue
			}
			for j := 0; j < lens[i] && !c.done(); j++ {
				c.walk(elem, start+int64(j)*elem.Extent())
			}
		}
	case datatype.KindStruct:
		for _, f := range t.Fields() {
			start := base + f.Disp
			if f.Type.Kind() == datatype.KindBasic {
				c.block(start, int64(f.Blocklen)*f.Type.Size())
				continue
			}
			for j := 0; j < f.Blocklen && !c.done(); j++ {
				c.walk(f.Type, start+int64(j)*f.Type.Extent())
			}
		}
	}
}

func (c *genBlocks) block(off, n int64) {
	if n <= 0 || c.done() {
		return
	}
	if c.skip > 0 {
		if c.skip >= n {
			c.skip -= n
			return
		}
		off += c.skip
		n -= c.skip
		c.skip = 0
	}
	if c.written+n > c.limit {
		n = c.limit - c.written
	}
	c.move(off, c.written, n)
	c.stats.add(n)
	c.written += n
}

// sameState reports whether two cursors over the same operation stand at
// the same place: offset, instance, leaf, in-block remainder and odometer.
func sameState(a, b *Cursor) bool {
	return a.off == b.off && a.inst == b.inst && a.leaf == b.leaf && a.rem == b.rem &&
		slices.Equal(a.odo(), b.odo())
}

// flatten expands a run-length descriptor list into one entry per block.
func flatten(descs []Descriptor) []Descriptor {
	var flat []Descriptor
	for _, d := range descs {
		for i := range d.Count {
			flat = append(flat, Descriptor{SrcOff: d.SrcOff + i*d.Stride, DstOff: d.DstOff + i*d.Len, Len: d.Len, Count: 1})
		}
	}
	return flat
}

// blockSink is a Sink outside local memory: it records every Write, which
// the cursor must issue once per block.
type blockSink struct {
	buf    []byte
	blocks [][2]int64
}

func (s *blockSink) Write(off int64, src []byte) {
	copy(s.buf[off:], src)
	s.blocks = append(s.blocks, [2]int64{off, int64(len(src))})
}

// FuzzCursorRuns drives the run-at-a-time cursor beside the block-at-a-time
// reference over a random type (randomType, from typeSeed), 1–4 instances
// and a chunk sequence: each op byte is a chunk of 1–128 bytes, and with its
// top bit set the chunk is retried once after a SeekTo back to its start,
// as the rendezvous path does after a faulted transfer. For every chunk,
// Pack (into local memory, through a block sink and one-shot) and Unpack
// must move the reference's blocks byte for byte, the run-length
// Descriptors must expand to the flat list the reference's blocks merge
// into, every Stats must equal the reference's, and every cursor must stand
// where the reference stands. The block-at-a-time generic engine
// (genBlocks) is the oracle for the bytes: chunk by chunk where its
// definition order is the leaf-major order (one leaf), and for the whole
// unpacked message otherwise. GenericPack and GenericUnpack must equal it
// on every chunk of every type in bytes, Stats and length moved.
func FuzzCursorRuns(f *testing.F) {
	f.Add(int64(1), uint8(1), []byte{7, 200, 3, 64, 1})
	f.Add(int64(42), uint8(3), []byte{127, 127, 255, 16})
	f.Fuzz(func(t *testing.T, typeSeed int64, count uint8, ops []byte) {
		rng := rand.New(rand.NewSource(typeSeed))
		ty := randomType(rng, 3).Commit()
		n := int(count%4) + 1
		total := ty.Size() * int64(n)
		if total == 0 || len(ops) == 0 {
			return
		}
		user := mkUser(ty, n, rng)
		oneLeaf := len(ty.Flat().Leaves) == 1

		// Walk visits the reference's blocks of the whole linearization.
		var want, got [][2]int64
		var ref Cursor
		ref.Init(ty, n)
		_, wst := ref.runBlocks(total, func(u, _, m int64) { want = append(want, [2]int64{u, m}) })
		gst := Walk(ty, n, func(off, size int64) { got = append(got, [2]int64{off, size}) })
		if !slices.Equal(got, want) || gst != wst {
			t.Fatalf("%s ×%d: Walk blocks %v %+v, reference %v %+v", ty, n, got, gst, want, wst)
		}

		ref.Reset()
		local, sinkCur, unpackCur, descCur := NewCursor(ty, n), NewCursor(ty, n), NewCursor(ty, n), NewCursor(ty, n)
		refUser := make([]byte, len(user))
		ffUser := make([]byte, len(user))
		var descs []Descriptor
		for i := 0; i < len(ops) && !ref.Done(); i++ {
			op := ops[i]
			start := ref.off
			chunk := int64(op&0x7f) + 1
			for try := 0; try < 1+int(op>>7); try++ {
				if try > 0 {
					for _, c := range []*Cursor{&ref, local, sinkCur, unpackCur, descCur} {
						c.SeekTo(start)
					}
				}
				var blocks [][3]int64
				var flat []Descriptor
				_, rst := ref.runBlocks(ref.clamp(chunk), func(u, l, m int64) {
					blocks = append(blocks, [3]int64{u, l, m})
					if k := len(flat); k > 0 {
						if last := &flat[k-1]; last.SrcOff+last.Len == u && last.DstOff+last.Len == l {
							last.Len += m
							return
						}
					}
					flat = append(flat, Descriptor{SrcOff: u, DstOff: l, Len: m, Count: 1})
				})
				size := ref.off - start
				lin := make([]byte, size)
				var writes [][2]int64
				for _, b := range blocks {
					copy(lin[b[1]:b[1]+b[2]], user[b[0]:])
					copy(refUser[b[0]:b[0]+b[2]], lin[b[1]:])
					writes = append(writes, [2]int64{b[1], b[2]})
				}
				// The generic engine in its own definition order: strided
				// runs against the block-at-a-time reference.
				gen, genUser := make([]byte, size), make([]byte, len(user))
				gn, gpst := genBlocksPack(gen, user, ty, n, start, size)
				gun, gust := genBlocksUnpack(genUser, lin, ty, n, start, size)
				runGen, runUser := make([]byte, size), make([]byte, len(user))
				pn, pst := GenericPack(runGen, user, ty, n, start, size)
				upn, upst := GenericUnpack(runUser, lin, ty, n, start, size)
				if !bytes.Equal(runGen, gen) || !bytes.Equal(runUser, genUser) ||
					pn != gn || upn != gun || pst != gpst || upst != gust {
					t.Fatalf("%s ×%d [%d,+%d): GenericPack %d %+v and GenericUnpack %d %+v, reference %d %+v and %d %+v (or other bytes)",
						ty, n, start, size, pn, pst, upn, upst, gn, gpst, gun, gust)
				}
				if oneLeaf {
					refChunk := make([]byte, len(user))
					for _, b := range blocks {
						copy(refChunk[b[0]:b[0]+b[2]], lin[b[1]:])
					}
					if !bytes.Equal(gen, lin) || !bytes.Equal(genUser, refChunk) {
						t.Fatalf("%s ×%d [%d,+%d): reference blocks differ from the generic engine", ty, n, start, size)
					}
				}

				packed := make([]byte, size)
				bs := &blockSink{buf: make([]byte, size)}
				_, lst := local.Pack(BufferSink{packed}, user, chunk)
				_, sst := sinkCur.Pack(bs, user, chunk)
				oneShot := make([]byte, size)
				FFPack(BufferSink{oneShot}, user, ty, n, start, size)
				if !bytes.Equal(packed, lin) || !bytes.Equal(bs.buf, lin) || !slices.Equal(bs.blocks, writes) || !bytes.Equal(oneShot, lin) {
					t.Fatalf("%s ×%d [%d,+%d): Pack moves other bytes or blocks than the reference", ty, n, start, size)
				}

				_, ust := unpackCur.Unpack(ffUser, lin, chunk)
				if !bytes.Equal(ffUser, refUser) {
					t.Fatalf("%s ×%d [%d,+%d): Unpack moves other bytes than the reference", ty, n, start, size)
				}

				var dst Stats
				descs, dst = descCur.Descriptors(descs[:0], chunk)
				gathered := make([]byte, size)
				for j := range descs {
					descs[j].Gather(gathered, user)
				}
				bytesN, runs, nblocks := DescriptorRuns(descs)
				if !slices.Equal(flatten(descs), flat) || !bytes.Equal(gathered, lin) ||
					bytesN != size || runs != 1 || nblocks != len(flat) {
					t.Fatalf("%s ×%d [%d,+%d): descriptors %+v expand to %+v, want %+v (runs %d, blocks %d)",
						ty, n, start, size, descs, flatten(descs), flat, runs, nblocks)
				}

				for _, st := range []Stats{lst, sst, ust, dst} {
					if st != rst {
						t.Fatalf("%s ×%d [%d,+%d): Stats %+v, reference %+v", ty, n, start, size, st, rst)
					}
				}
				for _, c := range []*Cursor{local, sinkCur, unpackCur, descCur} {
					if !sameState(c, &ref) {
						t.Fatalf("%s ×%d [%d,+%d): cursor at off %d inst %d leaf %d rem %d odo %v, reference off %d inst %d leaf %d rem %d odo %v",
							ty, n, start, size, c.off, c.inst, c.leaf, c.rem, c.odo(), ref.off, ref.inst, ref.leaf, ref.rem, ref.odo())
					}
				}
			}
		}
		if ref.Done() {
			// The whole message unpacked chunk by chunk is the generic
			// engine's round trip.
			gen := make([]byte, total)
			genBlocksPack(gen, user, ty, n, 0, -1)
			genUser := make([]byte, len(user))
			genBlocksUnpack(genUser, gen, ty, n, 0, -1)
			if !bytes.Equal(ffUser, genUser) {
				t.Fatalf("%s ×%d: the chunked unpack differs from the generic round trip", ty, n)
			}
		}
	})
}

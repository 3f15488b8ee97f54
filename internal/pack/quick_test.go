package pack

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"scimpich/internal/datatype"
)

// Property-based tests with testing/quick. A typeSpec is a reduced,
// always-valid description of a derived datatype that quick can generate;
// build turns it into a committed *datatype.Type.

type typeSpec struct {
	Kind     uint8
	Count    uint8
	Blocklen uint8
	Gap      uint8
	Elem     *typeSpec
	Lens     []uint8
}

// Generate implements quick.Generator with bounded depth.
func (typeSpec) Generate(rng *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(genSpec(rng, 3))
}

func genSpec(rng *rand.Rand, depth int) typeSpec {
	s := typeSpec{
		Kind:     uint8(rng.Intn(5)),
		Count:    uint8(rng.Intn(4) + 1),
		Blocklen: uint8(rng.Intn(3) + 1),
		Gap:      uint8(rng.Intn(3)),
	}
	if depth > 0 && rng.Intn(2) == 0 {
		e := genSpec(rng, depth-1)
		s.Elem = &e
	}
	n := rng.Intn(3) + 1
	s.Lens = make([]uint8, n)
	for i := range s.Lens {
		s.Lens[i] = uint8(rng.Intn(3) + 1)
	}
	return s
}

// build converts the spec into a committed type.
func (s typeSpec) build() *datatype.Type {
	elem := datatype.Float64
	if s.Elem != nil {
		elem = s.Elem.build()
	}
	count := int(s.Count)
	bl := int(s.Blocklen)
	switch s.Kind % 5 {
	case 0:
		return datatype.Contiguous(count, elem).Commit()
	case 1:
		return datatype.Vector(count, bl, bl+int(s.Gap), elem).Commit()
	case 2:
		stride := int64(bl)*elem.Extent() + int64(s.Gap)*8
		return datatype.Hvector(count, bl, stride, elem).Commit()
	case 3:
		lens := make([]int, len(s.Lens))
		displs := make([]int, len(s.Lens))
		next := 0
		for i := range lens {
			lens[i] = int(s.Lens[i])
			displs[i] = next
			next += lens[i] + int(s.Gap)
		}
		return datatype.Indexed(lens, displs, elem).Commit()
	default:
		fields := make([]datatype.Field, len(s.Lens))
		var disp int64
		for i := range fields {
			fields[i] = datatype.Field{Type: elem, Blocklen: int(s.Lens[i]), Disp: disp}
			disp += int64(s.Lens[i])*elem.Extent() + int64(s.Gap)*4
		}
		return datatype.StructOf(fields...).Commit()
	}
}

// userBuf allocates a filled buffer large enough for count instances.
func userBufFor(t *datatype.Type, count int, seed int64) []byte {
	n := t.LB() + t.Span(count) + 64
	if n < 64 {
		n = 64
	}
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(255) + 1)
	}
	return b
}

func TestQuickFFRoundTripIdentity(t *testing.T) {
	prop := func(s typeSpec, seed int64) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		user := userBufFor(ty, 2, seed)
		packed := make([]byte, ty.Size()*2)
		n, _ := FFPack(BufferSink{packed}, user, ty, 2, 0, -1)
		if n != int64(len(packed)) {
			return false
		}
		out := make([]byte, len(user))
		m, _ := FFUnpack(out, packed, ty, 2, 0, -1)
		if m != n {
			return false
		}
		// Every data byte must match; every gap byte must stay zero.
		covered := make([]bool, len(user))
		for i := 0; i < 2; i++ {
			base := int64(i) * ty.Extent()
			for _, blk := range ty.TypeMap() {
				for j := int64(0); j < blk.Len; j++ {
					covered[base+blk.Off+j] = true
				}
			}
		}
		for i := range user {
			if covered[i] && out[i] != user[i] {
				return false
			}
			if !covered[i] && out[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickChunkedPackEqualsFullPack(t *testing.T) {
	prop := func(s typeSpec, seed int64, chunkSeed uint16) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		user := userBufFor(ty, 1, seed)
		total := ty.Size()
		full := make([]byte, total)
		FFPack(BufferSink{full}, user, ty, 1, 0, -1)
		got := make([]byte, total)
		chunk := int64(chunkSeed%31) + 1
		var off int64
		for off < total {
			n, _ := FFPack(offsetSink{BufferSink{got}, off}, user, ty, 1, off, chunk)
			if n == 0 {
				return false
			}
			off += n
		}
		return bytes.Equal(got, full)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGenericAndFFMoveSameBytes(t *testing.T) {
	prop := func(s typeSpec, seed int64) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		user := userBufFor(ty, 1, seed)
		a := make([]byte, ty.Size())
		b := make([]byte, ty.Size())
		FFPack(BufferSink{a}, user, ty, 1, 0, -1)
		GenericPack(b, user, ty, 1, 0, -1)
		sortBytes(a)
		sortBytes(b)
		return bytes.Equal(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickStatsConsistency(t *testing.T) {
	// Blocks * MinBlock <= Bytes <= Blocks * MaxBlock, and Bytes equals
	// the packed size.
	prop := func(s typeSpec, seed int64) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		user := userBufFor(ty, 1, seed)
		out := make([]byte, ty.Size())
		n, st := FFPack(BufferSink{out}, user, ty, 1, 0, -1)
		if st.Bytes != n || n != ty.Size() {
			return false
		}
		if st.Blocks*st.MinBlock > st.Bytes || st.Blocks*st.MaxBlock < st.Bytes {
			return false
		}
		return st.AvgBlock() >= st.MinBlock && st.AvgBlock() <= st.MaxBlock
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFingerprintStability(t *testing.T) {
	// Equal specs produce equal fingerprints; the fingerprint survives
	// re-flattening.
	prop := func(s typeSpec) bool {
		a := s.build()
		b := s.build()
		return a.Flat().Fingerprint() == b.Flat().Fingerprint()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWalkCoversTypeMap(t *testing.T) {
	prop := func(s typeSpec, seed int64) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		seen := map[int64]bool{}
		var total int64
		Walk(ty, 1, func(off, size int64) {
			for j := int64(0); j < size; j++ {
				if seen[off+j] {
					total = -1 << 40 // overlap: fail
				}
				seen[off+j] = true
			}
			total += size
		})
		if total != ty.Size() {
			return false
		}
		for _, blk := range ty.TypeMap() {
			for j := int64(0); j < blk.Len; j++ {
				if !seen[blk.Off+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCursorChunkedEqualsFullPack is the cursor-resume property: a
// pack split into N random-sized chunks continued by one Cursor must be
// byte-identical to a single FFPack, for any generated derived type.
func TestQuickCursorChunkedEqualsFullPack(t *testing.T) {
	prop := func(s typeSpec, seed int64, chunkSeed uint16) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		const count = 2
		user := userBufFor(ty, count, seed)
		total := ty.Size() * count
		full := make([]byte, total)
		FFPack(BufferSink{full}, user, ty, count, 0, -1)
		got := make([]byte, total)
		cur := NewCursor(ty, count)
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		for !cur.Done() {
			chunk := int64(rng.Intn(29) + 1)
			off := cur.off
			n, _ := cur.Pack(offsetSink{BufferSink{got}, off}, user, chunk)
			if n == 0 || cur.off != off+n {
				return false
			}
		}
		return bytes.Equal(got, full)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCursorUnpackChunkedRoundTrip drives the receive direction: a
// chunked cursor unpack of a full pack must land every byte.
func TestQuickCursorUnpackChunkedRoundTrip(t *testing.T) {
	prop := func(s typeSpec, seed int64, chunkSeed uint16) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		const count = 2
		user := userBufFor(ty, count, seed)
		total := ty.Size() * count
		packed := make([]byte, total)
		FFPack(BufferSink{packed}, user, ty, count, 0, -1)
		out := make([]byte, len(user))
		cur := NewCursor(ty, count)
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		for !cur.Done() {
			chunk := int64(rng.Intn(29) + 1)
			off := cur.off
			end := off + chunk
			if end > total {
				end = total
			}
			cur.Unpack(out, packed[off:end], chunk)
		}
		ref := make([]byte, len(user))
		FFUnpack(ref, packed, ty, count, 0, -1)
		return bytes.Equal(out, ref)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCursorSeekEqualsSkip: seeking to an arbitrary offset (the
// O(leaves)+O(depth) find_position entry) then packing the remainder must
// match FFPack with the same skip.
func TestQuickCursorSeekEqualsSkip(t *testing.T) {
	prop := func(s typeSpec, seed int64, skipSeed uint16) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		const count = 2
		user := userBufFor(ty, count, seed)
		total := ty.Size() * count
		skip := int64(skipSeed) % total
		want := make([]byte, total-skip)
		FFPack(BufferSink{want}, user, ty, count, skip, -1)
		got := make([]byte, total-skip)
		cur := NewCursor(ty, count)
		cur.SeekTo(skip)
		n, _ := cur.Pack(BufferSink{got}, user, -1)
		return n == total-skip && cur.Done() && bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDescriptorsEqualFFPack is the scatter-gather property: applying
// the descriptor lists of a chunked cursor traversal — including a retry
// replay of random chunks, as the rendezvous path does after a transient
// DMA fault — must deposit exactly the bytes a one-shot FFPack produces.
func TestQuickDescriptorsEqualFFPack(t *testing.T) {
	prop := func(s typeSpec, seed int64, chunkSeed uint16) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		const count = 2
		user := userBufFor(ty, count, seed)
		total := ty.Size() * count
		full := make([]byte, total)
		FFPack(BufferSink{full}, user, ty, count, 0, -1)
		got := make([]byte, total)
		cur := NewCursor(ty, count)
		rng := rand.New(rand.NewSource(int64(chunkSeed)))
		var descs []Descriptor
		apply := func(start int64) bool {
			n, runs, blocks := DescriptorRuns(descs)
			if runs > len(descs) || len(descs) > blocks {
				return false
			}
			for _, d := range descs {
				for i := range d.Count {
					src := d.SrcOff + i*d.Stride
					copy(got[start+d.DstOff+i*d.Len:], user[src:src+d.Len])
				}
			}
			return n == cur.off-start
		}
		for !cur.Done() {
			chunk := int64(rng.Intn(29) + 1)
			start := cur.off
			var st Stats
			descs, st = cur.Descriptors(descs[:0], chunk)
			if st.Bytes != cur.off-start || !apply(start) {
				return false
			}
			if rng.Intn(3) == 0 {
				// Retry: rewind and regenerate, as after a faulted submit.
				cur.SeekTo(start)
				descs, _ = cur.Descriptors(descs[:0], chunk)
				if !apply(start) {
					return false
				}
			}
		}
		return bytes.Equal(got, full)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWalkMatchesFFPackStats: the layout iterator and the packing
// engine must agree on the block structure (count, bytes, min/max) of any
// derived type.
func TestQuickWalkMatchesFFPackStats(t *testing.T) {
	prop := func(s typeSpec, seed int64) bool {
		ty := s.build()
		if ty.Size() == 0 {
			return true
		}
		const count = 3
		user := userBufFor(ty, count, seed)
		out := make([]byte, ty.Size()*count)
		_, ps := FFPack(BufferSink{out}, user, ty, count, 0, -1)
		ws := Walk(ty, count, func(off, size int64) {})
		return ws == ps
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

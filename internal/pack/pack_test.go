package pack

import (
	"bytes"
	"math/rand"
	"testing"

	"scimpich/internal/datatype"
)

// mkUser returns a filled user buffer for count instances of t. The last
// instance may extend past count*extent when the type's upper bound exceeds
// its extent, so size by UB.
func mkUser(t *datatype.Type, count int, rng *rand.Rand) []byte {
	n := t.LB() + t.Span(count) + 64
	if n < 64 {
		n = 64
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(rng.Intn(255) + 1) // never zero, so gaps are detectable
	}
	return buf
}

func TestFFRoundTripVector(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ty := datatype.Vector(16, 3, 5, datatype.Float64).Commit()
	user := mkUser(ty, 2, rng)
	packed := make([]byte, ty.Size()*2)
	n, st := FFPack(BufferSink{packed}, user, ty, 2, 0, -1)
	if n != ty.Size()*2 {
		t.Fatalf("packed %d bytes, want %d", n, ty.Size()*2)
	}
	if st.Bytes != n {
		t.Errorf("stats bytes %d != packed %d", st.Bytes, n)
	}
	out := make([]byte, len(user))
	m, _ := FFUnpack(out, packed, ty, 2, 0, -1)
	if m != n {
		t.Fatalf("unpacked %d bytes, want %d", m, n)
	}
	checkCoveredEqual(t, ty, 2, user, out)
}

// checkCoveredEqual asserts out matches user exactly on the type's data
// bytes and is zero elsewhere.
func checkCoveredEqual(t *testing.T, ty *datatype.Type, count int, user, out []byte) {
	t.Helper()
	covered := make([]bool, len(user))
	for i := 0; i < count; i++ {
		base := int64(i) * ty.Extent()
		for _, b := range ty.TypeMap() {
			for j := int64(0); j < b.Len; j++ {
				covered[base+b.Off+j] = true
			}
		}
	}
	for i := range user {
		if covered[i] && out[i] != user[i] {
			t.Fatalf("data byte %d: got %d want %d", i, out[i], user[i])
		}
		if !covered[i] && out[i] != 0 {
			t.Fatalf("gap byte %d written: %d", i, out[i])
		}
	}
}

func TestGenericRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ty := datatype.Indexed([]int{3, 1, 2, 5}, []int{0, 9, 4, 20}, datatype.Int32).Commit()
	user := mkUser(ty, 3, rng)
	packed := make([]byte, ty.Size()*3)
	n, _ := GenericPack(packed, user, ty, 3, 0, -1)
	if n != ty.Size()*3 {
		t.Fatalf("packed %d, want %d", n, ty.Size()*3)
	}
	out := make([]byte, len(user))
	if m, _ := GenericUnpack(out, packed, ty, 3, 0, -1); m != n {
		t.Fatalf("unpacked %d, want %d", m, n)
	}
	checkCoveredEqual(t, ty, 3, user, out)
}

func TestGenericMatchesTypeMapOrder(t *testing.T) {
	// For the canonical linearization, packing must follow definition
	// order: build the expectation directly from the type map.
	rng := rand.New(rand.NewSource(3))
	ty := datatype.StructOf(
		datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
		datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
		datatype.Field{Type: datatype.Float64, Blocklen: 2, Disp: 8},
	).Commit()
	user := mkUser(ty, 1, rng)
	var want []byte
	for _, b := range ty.TypeMap() {
		want = append(want, user[b.Off:b.Off+b.Len]...)
	}
	packed := make([]byte, ty.Size())
	GenericPack(packed, user, ty, 1, 0, -1)
	if !bytes.Equal(packed, want) {
		t.Fatalf("generic pack order diverges from type map:\n got %v\nwant %v", packed, want)
	}
}

func TestFFEqualsGenericForSingleLeafTypes(t *testing.T) {
	// Vector types flatten to one leaf, so the leaf-major and canonical
	// linearizations coincide.
	rng := rand.New(rand.NewSource(4))
	for _, ty := range []*datatype.Type{
		datatype.Vector(8, 2, 4, datatype.Float64).Commit(),
		datatype.Contiguous(32, datatype.Int32).Commit(),
		datatype.Hvector(5, 3, 64, datatype.Int64).Commit(),
	} {
		user := mkUser(ty, 2, rng)
		a := make([]byte, ty.Size()*2)
		b := make([]byte, ty.Size()*2)
		FFPack(BufferSink{a}, user, ty, 2, 0, -1)
		GenericPack(b, user, ty, 2, 0, -1)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: ff and generic linearizations differ", ty)
		}
	}
}

func TestPartialPacksConcatenate(t *testing.T) {
	// Packing in arbitrary chunks must produce exactly the full pack —
	// the requirement the rendezvous protocol puts on direct_pack_ff
	// ("pack only parts of the data starting at an arbitrary point").
	rng := rand.New(rand.NewSource(5))
	inner := datatype.StructOf(
		datatype.Field{Type: datatype.Int32, Blocklen: 1, Disp: 0},
		datatype.Field{Type: datatype.Char, Blocklen: 3, Disp: 4},
	)
	ty := datatype.Vector(11, 2, 3, datatype.Resized(inner, 0, 8)).Commit()
	const count = 3
	user := mkUser(ty, count, rng)
	total := ty.Size() * count

	full := make([]byte, total)
	FFPack(BufferSink{full}, user, ty, count, 0, -1)

	for trial := 0; trial < 50; trial++ {
		got := make([]byte, total)
		var off int64
		for off < total {
			chunk := int64(rng.Intn(97) + 1)
			n, _ := FFPack(offsetSink{BufferSink{got}, off}, user, ty, count, off, chunk)
			if n == 0 {
				t.Fatalf("trial %d: no progress at offset %d", trial, off)
			}
			off += n
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("trial %d: chunked pack differs from full pack", trial)
		}
	}
}

// offsetSink shifts sink offsets by a base (chunked packing writes each
// chunk at its linearization offset).
type offsetSink struct {
	s    Sink
	base int64
}

func (o offsetSink) Write(off int64, src []byte) { o.s.Write(o.base+off, src) }

func TestPartialUnpacksReassemble(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ty := datatype.Indexed([]int{2, 5, 1}, []int{10, 0, 7}, datatype.Float32).Commit()
	const count = 4
	user := mkUser(ty, count, rng)
	total := ty.Size() * count
	packed := make([]byte, total)
	FFPack(BufferSink{packed}, user, ty, count, 0, -1)

	out := make([]byte, len(user))
	var off int64
	for off < total {
		chunk := int64(rng.Intn(31) + 1)
		if off+chunk > total {
			chunk = total - off
		}
		n, _ := FFUnpack(out, packed[off:off+chunk], ty, count, off, chunk)
		if n != chunk {
			t.Fatalf("unpacked %d of %d at offset %d", n, chunk, off)
		}
		off += chunk
	}
	checkCoveredEqual(t, ty, count, user, out)
}

func TestGenericPartialPacks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ty := datatype.Vector(9, 3, 7, datatype.Int32).Commit()
	const count = 2
	user := mkUser(ty, count, rng)
	total := ty.Size() * count
	full := make([]byte, total)
	GenericPack(full, user, ty, count, 0, -1)
	got := make([]byte, total)
	var off int64
	for off < total {
		chunk := int64(rng.Intn(53) + 1)
		if off+chunk > total {
			chunk = total - off
		}
		buf := make([]byte, chunk)
		n, _ := GenericPack(buf, user, ty, count, off, chunk)
		copy(got[off:], buf[:n])
		if n != chunk {
			t.Fatalf("generic packed %d of %d at %d", n, chunk, off)
		}
		off += chunk
	}
	if !bytes.Equal(got, full) {
		t.Fatal("generic chunked pack differs from full pack")
	}
}

func TestStatsBlockCounts(t *testing.T) {
	ty := datatype.Vector(10, 2, 4, datatype.Float64).Commit()
	user := make([]byte, ty.Extent()+64)
	packed := make([]byte, ty.Size())
	_, st := FFPack(BufferSink{packed}, user, ty, 1, 0, -1)
	if st.Blocks != 10 {
		t.Errorf("ff blocks = %d, want 10", st.Blocks)
	}
	if st.MinBlock != 16 || st.MaxBlock != 16 {
		t.Errorf("block sizes %d..%d, want 16..16", st.MinBlock, st.MaxBlock)
	}
	if st.AvgBlock() != 16 {
		t.Errorf("avg block = %d, want 16", st.AvgBlock())
	}
	_, gst := GenericPack(packed, user, ty, 1, 0, -1)
	if gst.Blocks != 20 { // generic walks per basic element run: 2 doubles fuse? per walk: blocklen elems visited individually
		// Generic visits each basic element; adjacent copies are not fused.
		t.Logf("generic blocks = %d", gst.Blocks)
	}
	if gst.Bytes != st.Bytes {
		t.Errorf("generic bytes %d != ff bytes %d", gst.Bytes, st.Bytes)
	}
}

func TestZeroSizeOperations(t *testing.T) {
	ty := datatype.Vector(0, 2, 4, datatype.Float64).Commit()
	n, st := FFPack(BufferSink{nil}, nil, ty, 5, 0, -1)
	if n != 0 || st.Blocks != 0 {
		t.Errorf("zero-size pack moved %d bytes in %d blocks", n, st.Blocks)
	}
	ty2 := datatype.Contiguous(4, datatype.Int32).Commit()
	n, _ = FFPack(BufferSink{make([]byte, 16)}, make([]byte, 16), ty2, 1, 16, -1)
	if n != 0 {
		t.Errorf("pack at end offset moved %d bytes", n)
	}
}

func TestSkipBeyondTotalPanics(t *testing.T) {
	ty := datatype.Contiguous(4, datatype.Int32).Commit()
	defer func() {
		if recover() == nil {
			t.Error("skip beyond total did not panic")
		}
	}()
	FFPack(BufferSink{nil}, nil, ty, 1, 17, -1)
}

// randomType builds a random committed datatype of bounded depth/size for
// property testing. One count or block length in eight is zero: empty
// levels and blocks are legal MPI and an edge of every engine.
func randomType(rng *rand.Rand, depth int) *datatype.Type {
	basics := []*datatype.Type{datatype.Byte, datatype.Int16, datatype.Int32, datatype.Int64, datatype.Float64}
	if depth <= 0 || rng.Intn(3) == 0 {
		return basics[rng.Intn(len(basics))]
	}
	upTo := func(hi int) int {
		if rng.Intn(8) == 0 {
			return 0
		}
		return rng.Intn(hi) + 1
	}
	elem := randomType(rng, depth-1)
	switch rng.Intn(5) {
	case 0:
		return datatype.Contiguous(upTo(4), elem)
	case 1:
		bl := upTo(3)
		return datatype.Vector(upTo(4), bl, bl+rng.Intn(3), elem)
	case 2:
		bl := upTo(3)
		return datatype.Hvector(upTo(4), bl, int64(bl)*elem.Extent()+int64(rng.Intn(16)), elem)
	case 3:
		nb := rng.Intn(3) + 1
		lens := make([]int, nb)
		displs := make([]int, nb)
		next := 0
		for i := range lens {
			lens[i] = upTo(3)
			displs[i] = next + rng.Intn(3)
			next = displs[i] + lens[i] + rng.Intn(2)
		}
		return datatype.Indexed(lens, displs, elem)
	default:
		nf := rng.Intn(3) + 1
		fields := make([]datatype.Field, nf)
		var disp int64
		for i := range fields {
			ft := randomType(rng, depth-1)
			bl := rng.Intn(2) + 1
			fields[i] = datatype.Field{Type: ft, Blocklen: bl, Disp: disp + int64(rng.Intn(8))}
			disp = fields[i].Disp + int64(bl)*ft.Extent()
		}
		return datatype.StructOf(fields...)
	}
}

func TestPropertyFFRoundTripRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		ty := randomType(rng, 3)
		if ty.Size() == 0 {
			continue
		}
		ty.Commit()
		count := rng.Intn(3) + 1
		user := mkUser(ty, count, rng)
		packed := make([]byte, ty.Size()*int64(count))
		n, _ := FFPack(BufferSink{packed}, user, ty, count, 0, -1)
		if n != int64(len(packed)) {
			t.Fatalf("trial %d (%s): packed %d of %d", trial, ty, n, len(packed))
		}
		out := make([]byte, len(user))
		FFUnpack(out, packed, ty, count, 0, -1)
		checkCoveredEqual(t, ty, count, user, out)
	}
}

func TestPropertyChunkedEqualsFullRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		if ty.Size() == 0 {
			continue
		}
		ty.Commit()
		count := rng.Intn(2) + 1
		user := mkUser(ty, count, rng)
		total := ty.Size() * int64(count)
		full := make([]byte, total)
		FFPack(BufferSink{full}, user, ty, count, 0, -1)
		got := make([]byte, total)
		var off int64
		for off < total {
			chunk := int64(rng.Intn(17) + 1)
			n, _ := FFPack(offsetSink{BufferSink{got}, off}, user, ty, count, off, chunk)
			off += n
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("trial %d (%s): chunked != full", trial, ty)
		}
	}
}

func TestPropertyGenericRoundTripRandomTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		if ty.Size() == 0 {
			continue
		}
		ty.Commit()
		count := rng.Intn(3) + 1
		user := mkUser(ty, count, rng)
		packed := make([]byte, ty.Size()*int64(count))
		GenericPack(packed, user, ty, count, 0, -1)
		out := make([]byte, len(user))
		GenericUnpack(out, packed, ty, count, 0, -1)
		checkCoveredEqual(t, ty, count, user, out)
	}
}

func TestPropertyFFAndGenericMoveSameByteSet(t *testing.T) {
	// The linearization order may differ, but the multiset of moved bytes
	// (source offsets) must be identical.
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 200; trial++ {
		ty := randomType(rng, 3)
		if ty.Size() == 0 {
			continue
		}
		ty.Commit()
		user := mkUser(ty, 1, rng)
		a := make([]byte, ty.Size())
		b := make([]byte, ty.Size())
		FFPack(BufferSink{a}, user, ty, 1, 0, -1)
		GenericPack(b, user, ty, 1, 0, -1)
		sa := append([]byte(nil), a...)
		sb := append([]byte(nil), b...)
		sortBytes(sa)
		sortBytes(sb)
		if !bytes.Equal(sa, sb) {
			t.Fatalf("trial %d (%s): engines moved different byte multisets", trial, ty)
		}
	}
}

func sortBytes(b []byte) {
	var counts [256]int
	for _, x := range b {
		counts[x]++
	}
	i := 0
	for v := 0; v < 256; v++ {
		for k := 0; k < counts[v]; k++ {
			b[i] = byte(v)
			i++
		}
	}
}

func TestCumulative(t *testing.T) {
	var c Cumulative
	c.Add(Stats{Blocks: 4, Bytes: 64, MinBlock: 8, MaxBlock: 32})
	c.Add(Stats{Blocks: 2, Bytes: 16, MinBlock: 8, MaxBlock: 8})
	c.Add(Stats{}) // empty operations are not counted
	want := Cumulative{Ops: 2, Blocks: 6, Bytes: 80, MaxBlock: 32}
	if c != want {
		t.Errorf("totals = %+v, want %+v", c, want)
	}
}

package datatype

import (
	"testing"
)

func TestBasicTypes(t *testing.T) {
	cases := []struct {
		ty   *Type
		size int64
	}{
		{Byte, 1}, {Char, 1}, {Int16, 2}, {Int32, 4}, {Int64, 8},
		{Float32, 4}, {Float64, 8},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size || c.ty.Extent() != c.size {
			t.Errorf("%s: size/extent = %d/%d, want %d", c.ty, c.ty.Size(), c.ty.Extent(), c.size)
		}
		if !c.ty.Committed() || !c.ty.Contiguous() {
			t.Errorf("%s: basic types are committed and contiguous", c.ty)
		}
	}
}

func TestContiguous(t *testing.T) {
	ty := Contiguous(10, Float64).Commit()
	if ty.Size() != 80 || ty.Extent() != 80 {
		t.Errorf("size/extent = %d/%d, want 80/80", ty.Size(), ty.Extent())
	}
	if !ty.Contiguous() {
		t.Error("contiguous of basic reported non-contiguous")
	}
	f := ty.Flat()
	if len(f.Leaves) != 1 || f.Leaves[0].Size != 80 || len(f.Leaves[0].Stack) != 0 {
		t.Errorf("flat = %+v, want single merged 80-byte leaf", f.Leaves)
	}
}

func TestVector(t *testing.T) {
	// 4 blocks of 2 doubles, stride 3 doubles.
	ty := Vector(4, 2, 3, Float64).Commit()
	if ty.Size() != 64 {
		t.Errorf("size = %d, want 64", ty.Size())
	}
	// Extent: (count-1)*stride + blocklen elements = 3*3+2 = 11 doubles.
	if ty.Extent() != 88 {
		t.Errorf("extent = %d, want 88", ty.Extent())
	}
	if ty.Contiguous() {
		t.Error("strided vector reported contiguous")
	}
	f := ty.Flat()
	if len(f.Leaves) != 1 {
		t.Fatalf("leaves = %d, want 1", len(f.Leaves))
	}
	l := f.Leaves[0]
	// Inner blocklen*8 = 16-byte block repeating 4 times every 24 bytes.
	if l.Size != 16 || len(l.Stack) != 1 || l.Stack[0].Count != 4 || l.Stack[0].Stride != 24 {
		t.Errorf("leaf = %+v, want 16B block x4 stride 24", l)
	}
}

func TestVectorDegeneratesToContiguous(t *testing.T) {
	// stride == blocklen: no gaps.
	ty := Vector(4, 2, 2, Float64).Commit()
	if !ty.Contiguous() {
		t.Error("gap-free vector reported non-contiguous")
	}
	f := ty.Flat()
	if len(f.Leaves) != 1 || f.Leaves[0].Size != 64 || len(f.Leaves[0].Stack) != 0 {
		t.Errorf("flat = %+v, want one fused 64-byte leaf", f.Leaves)
	}
}

func TestHvector(t *testing.T) {
	ty := Hvector(3, 1, 100, Int32).Commit()
	if ty.Size() != 12 || ty.Extent() != 204 {
		t.Errorf("size/extent = %d/%d, want 12/204", ty.Size(), ty.Extent())
	}
	f := ty.Flat()
	if len(f.Leaves) != 1 || f.Leaves[0].Stack[0].Stride != 100 {
		t.Errorf("flat = %+v, want stride-100 stack", f.Leaves)
	}
}

func TestIndexed(t *testing.T) {
	ty := Indexed([]int{2, 1, 3}, []int{0, 4, 8}, Int32).Commit()
	if ty.Size() != 24 {
		t.Errorf("size = %d, want 24", ty.Size())
	}
	f := ty.Flat()
	if len(f.Leaves) != 3 {
		t.Fatalf("leaves = %d, want 3", len(f.Leaves))
	}
	wantFirst := []int64{0, 16, 32}
	wantSize := []int64{8, 4, 12}
	for i, l := range f.Leaves {
		if l.First != wantFirst[i] || l.Size != wantSize[i] || len(l.Stack) != 0 {
			t.Errorf("leaf %d = %+v, want %dB at %d with empty stack", i, l, wantSize[i], wantFirst[i])
		}
	}
}

func TestStructMergesAdjacentFields(t *testing.T) {
	// The paper's figure 3/5 example: struct of one int and 3 chars with a
	// gap, repeated as a vector. The int and chars are adjacent and must
	// merge into one 7-byte leaf.
	st := StructOf(
		Field{Type: Int32, Blocklen: 1, Disp: 0},
		Field{Type: Char, Blocklen: 3, Disp: 4},
	)
	st = Resized(st, 0, 12) // two bytes of trailing gap, aligned extent
	ty := Vector(5, 1, 1, st).Commit()
	f := ty.Flat()
	if len(f.Leaves) != 1 {
		t.Fatalf("leaves = %+v, want a single merged leaf", f.Leaves)
	}
	l := f.Leaves[0]
	if l.Size != 7 || len(l.Stack) != 1 || l.Stack[0].Count != 5 || l.Stack[0].Stride != 12 {
		t.Errorf("leaf = %+v, want 7B x5 stride 12", l)
	}
	if ty.Size() != 35 {
		t.Errorf("size = %d, want 35", ty.Size())
	}
}

func TestNestedVectorOfVector(t *testing.T) {
	inner := Vector(3, 1, 2, Float64) // 3 doubles every 16 bytes
	outer := Vector(2, 1, 1, Resized(inner, 0, 64)).Commit()
	f := outer.Flat()
	if len(f.Leaves) != 1 {
		t.Fatalf("leaves = %d, want 1", len(f.Leaves))
	}
	l := f.Leaves[0]
	if l.Size != 8 || len(l.Stack) != 2 {
		t.Fatalf("leaf = %+v, want 8B with 2 stack levels", l)
	}
	if l.Stack[0].Count != 2 || l.Stack[0].Stride != 64 {
		t.Errorf("outer level = %+v, want 2 x stride 64", l.Stack[0])
	}
	if l.Stack[1].Count != 3 || l.Stack[1].Stride != 16 {
		t.Errorf("inner level = %+v, want 3 x stride 16", l.Stack[1])
	}
	if f.Depth != 2 {
		t.Errorf("depth = %d, want 2", f.Depth)
	}
}

func TestTypeMapMatchesFlat(t *testing.T) {
	// The flattened representation must touch exactly the same bytes as
	// the definition-order type map.
	types := []*Type{
		Vector(4, 2, 3, Float64),
		Indexed([]int{2, 1, 3}, []int{0, 7, 3}, Int32),
		StructOf(
			Field{Type: Int32, Blocklen: 2, Disp: 0},
			Field{Type: Float64, Blocklen: 1, Disp: 16},
		),
		Contiguous(3, Vector(2, 1, 2, Int32)),
	}
	for _, ty := range types {
		ty.Commit()
		want := map[int64]bool{}
		for _, b := range ty.TypeMap() {
			for i := int64(0); i < b.Len; i++ {
				if want[b.Off+i] {
					t.Fatalf("%s: type map overlaps at byte %d", ty, b.Off+i)
				}
				want[b.Off+i] = true
			}
		}
		got := map[int64]bool{}
		for _, l := range ty.Flat().Leaves {
			walkLeaf(&l, func(off int64) {
				for i := int64(0); i < l.Size; i++ {
					if got[off+i] {
						t.Fatalf("%s: flat leaves overlap at byte %d", ty, off+i)
					}
					got[off+i] = true
				}
			})
		}
		if len(got) != len(want) {
			t.Fatalf("%s: flat covers %d bytes, type map %d", ty, len(got), len(want))
		}
		for o := range want {
			if !got[o] {
				t.Fatalf("%s: flat misses byte %d", ty, o)
			}
		}
	}
}

// walkLeaf invokes fn with the user-buffer offset of every occurrence.
func walkLeaf(l *Leaf, fn func(off int64)) {
	idx := make([]int64, len(l.Stack))
	for {
		off := l.First
		for j, lv := range l.Stack {
			off += idx[j] * lv.Stride
		}
		fn(off)
		j := len(idx) - 1
		for ; j >= 0; j-- {
			idx[j]++
			if idx[j] < l.Stack[j].Count {
				break
			}
			idx[j] = 0
		}
		if j < 0 {
			return
		}
	}
}

func TestFindPosition(t *testing.T) {
	ty := Vector(4, 2, 3, Float64).Commit() // 16B blocks x4, stride 24
	f := ty.Flat()
	cases := []struct {
		off      int64
		idx0     int64
		rem      int64
		leafsKip int
	}{
		{0, 0, 0, 0},
		{5, 0, 5, 0},
		{16, 1, 0, 0},
		{40, 2, 8, 0},
		{63, 3, 15, 0},
	}
	for _, c := range cases {
		pos := f.FindPosition(c.off)
		if pos.LeafIndex != 0 || pos.Index[0] != c.idx0 || pos.Rem != c.rem {
			t.Errorf("FindPosition(%d) = %+v, want idx %d rem %d", c.off, pos, c.idx0, c.rem)
		}
	}
	if pos := f.FindPosition(64); pos.LeafIndex != len(f.Leaves) {
		t.Errorf("FindPosition(end) = %+v, want end sentinel", pos)
	}
}

func TestFindPositionMultiLeaf(t *testing.T) {
	ty := Indexed([]int{2, 1, 3}, []int{0, 4, 8}, Int32).Commit()
	f := ty.Flat() // leaves of 8, 4, 12 bytes
	pos := f.FindPosition(9)
	if pos.LeafIndex != 1 || pos.Rem != 1 {
		t.Errorf("FindPosition(9) = %+v, want leaf 1 rem 1", pos)
	}
	pos = f.FindPosition(12)
	if pos.LeafIndex != 2 || pos.Rem != 0 {
		t.Errorf("FindPosition(12) = %+v, want leaf 2 rem 0", pos)
	}
}

func TestFindPositionOutOfRangePanics(t *testing.T) {
	ty := Contiguous(2, Int32).Commit()
	defer func() {
		if recover() == nil {
			t.Error("FindPosition beyond size did not panic")
		}
	}()
	ty.Flat().FindPosition(9)
}

func TestUncommittedFlatPanics(t *testing.T) {
	ty := Vector(2, 1, 2, Int32)
	defer func() {
		if recover() == nil {
			t.Error("Flat on uncommitted type did not panic")
		}
	}()
	ty.Flat()
}

func TestZeroCountTypes(t *testing.T) {
	ty := Vector(0, 5, 7, Float64).Commit()
	if ty.Size() != 0 || len(ty.Flat().Leaves) != 0 {
		t.Errorf("zero-count vector: size %d leaves %d, want 0/0", ty.Size(), len(ty.Flat().Leaves))
	}
	ty2 := Indexed([]int{0, 0}, []int{3, 9}, Int32).Commit()
	if ty2.Size() != 0 || len(ty2.Flat().Leaves) != 0 {
		t.Errorf("all-zero indexed: size %d leaves %d, want 0/0", ty2.Size(), len(ty2.Flat().Leaves))
	}
}

func TestResized(t *testing.T) {
	ty := Resized(Contiguous(2, Int32), 0, 32)
	if ty.Extent() != 32 || ty.Size() != 8 {
		t.Errorf("resized: extent %d size %d, want 32/8", ty.Extent(), ty.Size())
	}
	v := Vector(3, 1, 1, ty).Commit()
	f := v.Flat()
	if len(f.Leaves) != 1 || f.Leaves[0].Stack[0].Stride != 32 {
		t.Errorf("vector over resized: %+v, want stride 32", f.Leaves)
	}
}

func TestStringRendering(t *testing.T) {
	empty := Vector(0, 1, 2, Int32) // extent 0
	for _, tc := range []struct {
		ty   *Type
		want string
	}{
		{Vector(4, 2, 3, Float64), "vector(4,2,3,MPI_DOUBLE)"},
		{Hvector(2, 1, 24, Int32), "hvector(2,1,24B,MPI_INT)"},
		{Contiguous(2, Int16), "contig(2,MPI_SHORT)"},
		{Indexed([]int{1, 0}, []int{0, 4}, Byte), "indexed(2 blocks,MPI_BYTE)"},
		{StructOf(Field{Type: Int32, Blocklen: 1, Disp: 0}), "struct(1@0:MPI_INT)"},
		// Zero-extent elements: the stride has no element count.
		{Vector(3, 2, 2, empty), "vector(3,2,0B,vector(0,1,2,MPI_INT))"},
		{Vector(2, 1, 1, Contiguous(0, Float64)), "vector(2,1,0B,contig(0,MPI_DOUBLE))"},
		{Hvector(2, 1, 8, empty), "hvector(2,1,8B,vector(0,1,2,MPI_INT))"},
		{StructOf(Field{Type: empty, Blocklen: 2, Disp: 4}), "struct(2@4:vector(0,1,2,MPI_INT))"},
	} {
		if got := tc.ty.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestNegativeArgsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"contiguous": func() { Contiguous(-1, Int32) },
		"vector":     func() { Vector(2, -1, 3, Int32) },
		"indexed":    func() { Indexed([]int{-1}, []int{0}, Int32) },
		"mismatch":   func() { Hindexed([]int{1, 2}, []int64{0}, Int32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid args did not panic", name)
				}
			}()
			fn()
		}()
	}
}

package datatype

import (
	"math/rand"
	"testing"
)

// denseByDefinition is what Contiguous means, taken from a fresh flattening:
// one leaf that occurs once and carries the whole type.
func denseByDefinition(t *Type) bool {
	f := t.flatten()
	return len(f.Leaves) == 1 && len(f.Leaves[0].Stack) == 0 && f.Leaves[0].Size == t.size
}

// randomTree builds an uncommitted constructor tree of bounded depth over
// Float64, in the manner of internal/pack/quick_test.go: every constructor,
// gaps of zero (so that dense trees occur) to two elements, and resized
// leaves.
func randomTree(rng *rand.Rand, depth int) *Type {
	elem := Float64
	if depth > 0 && rng.Intn(2) == 0 {
		elem = randomTree(rng, depth-1)
	}
	count, bl, gap := rng.Intn(4)+1, rng.Intn(3)+1, rng.Intn(3)
	switch rng.Intn(6) {
	case 0:
		return Contiguous(count, elem)
	case 1:
		return Vector(count, bl, bl+gap, elem)
	case 2:
		return Hvector(count, bl, int64(bl)*elem.Extent()+int64(gap)*8, elem)
	case 3:
		lens, displs := make([]int, rng.Intn(3)+1), make([]int, 3)
		next := 0
		for i := range lens {
			lens[i], displs[i] = rng.Intn(3)+1, next
			next += lens[i] + gap
		}
		return Indexed(lens, displs[:len(lens)], elem)
	case 4:
		fields := make([]Field, rng.Intn(3)+1)
		var disp int64
		for i := range fields {
			fields[i] = Field{Type: elem, Blocklen: rng.Intn(3) + 1, Disp: disp}
			disp += int64(fields[i].Blocklen)*elem.Extent() + int64(gap)*4
		}
		return StructOf(fields...)
	default:
		return Resized(elem, 0, elem.Extent()+int64(gap)*8)
	}
}

// TestContiguousAllocFree: Commit decides Contiguous once. On a committed
// type the answer costs no allocation however many leaves the type has, and
// it equals the flattened definition on randomly built constructor trees,
// committed and uncommitted alike (an uncommitted type still flattens on
// demand).
func TestContiguousAllocFree(t *testing.T) {
	lens, displs := make([]int, 1000), make([]int, 1000)
	for i := range lens {
		lens[i], displs[i] = 1, 2*i
	}
	for _, tc := range []struct {
		name string
		ty   *Type
		want bool
	}{
		{"vector", Vector(1024, 1, 2, Float64).Commit(), false},
		{"dense vector", Vector(1024, 2, 2, Float64).Commit(), true},
		{"indexed1000", Indexed(lens, displs, Float64).Commit(), false},
		{"struct", StructOf(Field{Type: Int32, Blocklen: 1}, Field{Type: Float64, Blocklen: 2, Disp: 8}).Commit(), false},
	} {
		ty, got := tc.ty, false
		if n := testing.AllocsPerRun(100, func() { got = ty.Contiguous() }); n != 0 {
			t.Errorf("%s: Contiguous() on a committed type allocates %.0f objects", tc.name, n)
		}
		if got != tc.want {
			t.Errorf("%s: Contiguous() = %v, want %v", tc.name, got, tc.want)
		}
	}

	rng := rand.New(rand.NewSource(1))
	dense := 0
	for i := 0; i < 2000; i++ {
		ty := randomTree(rng, 3)
		want := denseByDefinition(ty)
		if got := ty.Contiguous(); got != want {
			t.Fatalf("uncommitted %s: Contiguous() = %v, the flattening says %v", ty, got, want)
		}
		if got := ty.Commit().Contiguous(); got != want {
			t.Fatalf("committed %s: Contiguous() = %v, the flattening says %v", ty, got, want)
		}
		if want {
			dense++
		}
	}
	if dense < 50 || dense > 1950 {
		t.Errorf("%d of 2000 random trees are dense: the generator does not cover both answers", dense)
	}
}

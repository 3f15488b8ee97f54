// Package datatype implements MPI derived datatypes: basic types plus the
// constructors contiguous, vector, hvector, indexed, hindexed and struct,
// with the tree representation used by MPICH and the flattened
// leaf-list-plus-stack representation built at commit time for the
// direct_pack_ff algorithm (paper §3.1, §3.3, figures 3 and 5).
package datatype

import (
	"fmt"
	"strings"
)

// Kind enumerates the type constructors.
type Kind int

// The MPI type constructors.
const (
	KindBasic Kind = iota
	KindContiguous
	KindVector
	KindHvector
	KindIndexed
	KindHindexed
	KindStruct
)

func (k Kind) String() string {
	switch k {
	case KindBasic:
		return "basic"
	case KindContiguous:
		return "contiguous"
	case KindVector:
		return "vector"
	case KindHvector:
		return "hvector"
	case KindIndexed:
		return "indexed"
	case KindHindexed:
		return "hindexed"
	case KindStruct:
		return "struct"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type is an immutable MPI datatype. Constructed types form a tree whose
// leaves are basic types; Commit builds the flattened representation.
type Type struct {
	kind   Kind
	name   string
	size   int64 // bytes of actual data
	lb, ub int64 // lower/upper bound; extent = ub - lb

	// Tree children, meaning depends on kind:
	//  contiguous: elem, count
	//  vector/hvector: elem, count, blocklen, stride (bytes)
	//  indexed/hindexed: elem, blocklens, displs (bytes)
	//  struct: fields
	elem      *Type
	count     int
	blocklen  int
	stride    int64 // always in bytes internally
	blocklens []int
	displs    []int64 // always in bytes internally
	fields    []Field

	committed bool
	contig    bool // Contiguous()'s answer, fixed at Commit
	flat      *Flat

	// cached signature (see Signature in typemap.go)
	sig         uint64
	sigByteOnly bool
	sigDone     bool
}

// Field is one member of a struct type.
type Field struct {
	Type     *Type
	Blocklen int
	Disp     int64 // bytes
}

// Basic datatypes, mirroring the MPI predefined types.
var (
	Byte    = basic("MPI_BYTE", 1)
	Char    = basic("MPI_CHAR", 1)
	Int16   = basic("MPI_SHORT", 2)
	Int32   = basic("MPI_INT", 4)
	Int64   = basic("MPI_LONG_LONG", 8)
	Float32 = basic("MPI_FLOAT", 4)
	Float64 = basic("MPI_DOUBLE", 8)
	Double  = Float64
)

func basic(name string, size int64) *Type {
	return &Type{kind: KindBasic, name: name, size: size, ub: size, committed: true}
}

// Kind returns the constructor kind.
func (t *Type) Kind() Kind { return t.kind }

// Size returns the number of data bytes one instance carries (gaps
// excluded).
func (t *Type) Size() int64 { return t.size }

// Extent returns ub - lb: the spacing between consecutive instances.
func (t *Type) Extent() int64 { return t.ub - t.lb }

// LB returns the lower bound (the lowest byte displacement touched).
func (t *Type) LB() int64 { return t.lb }

// Span returns the bytes count instances of t cover, from the lower bound
// of the first to the upper bound of the last — Extent()*(count-1) plus one
// instance's upper minus lower bound — and 0 for count <= 0. A buffer that
// holds count instances from its first byte is at least LB() + Span(count)
// long.
func (t *Type) Span(count int) int64 {
	if count <= 0 {
		return 0
	}
	return t.Extent()*int64(count-1) + t.ub - t.lb
}

// Committed reports whether Commit has run.
func (t *Type) Committed() bool { return t.committed }

// Elem returns the element type of contiguous/vector/indexed constructors
// (nil for basic and struct types).
func (t *Type) Elem() *Type { return t.elem }

// Count returns the replication count of contiguous and vector types.
func (t *Type) Count() int { return t.count }

// Blocklen returns the block length of vector types.
func (t *Type) Blocklen() int { return t.blocklen }

// StrideBytes returns the byte stride of vector/hvector types.
func (t *Type) StrideBytes() int64 { return t.stride }

// Blocklens returns the per-block lengths of indexed types.
func (t *Type) Blocklens() []int { return t.blocklens }

// Displs returns the per-block byte displacements of indexed types.
func (t *Type) Displs() []int64 { return t.displs }

// Fields returns the members of a struct type.
func (t *Type) Fields() []Field { return t.fields }

// Base returns the single basic type every element of t is built from, or
// nil when t mixes different basic types (a struct of ints and doubles).
// Reductions on derived datatypes operate elementwise on this base type
// after the data has been linearized.
func (t *Type) Base() *Type {
	switch t.kind {
	case KindBasic:
		return t
	case KindStruct:
		var base *Type
		for _, f := range t.fields {
			b := f.Type.Base()
			if b == nil || (base != nil && b != base) {
				return nil
			}
			base = b
		}
		return base
	default:
		return t.elem.Base()
	}
}

// Contiguous reports whether the type's data is one dense block (no gaps),
// in which case packing is unnecessary. Commit decides it once; only a type
// that is not committed yet is flattened to answer.
func (t *Type) Contiguous() bool {
	if t.kind == KindBasic {
		return true
	}
	if t.committed {
		return t.contig
	}
	return t.flatten().oneDenseBlock()
}

// oneDenseBlock reports whether the flattening is a single leaf that occurs
// once and carries the whole type.
func (f *Flat) oneDenseBlock() bool {
	if len(f.Leaves) != 1 {
		return false
	}
	l := f.Leaves[0]
	return len(l.Stack) == 0 && l.Size == f.Size
}

// Commit finalizes the type for communication, building the flattened
// leaf/stack representation ("it is at this moment that the library may
// generate an optimized representation of the datatype"). Commit returns
// its receiver for chaining; committing twice is a no-op.
func (t *Type) Commit() *Type {
	if t.committed {
		return t
	}
	t.flat = t.flatten()
	t.contig = t.flat.oneDenseBlock()
	t.committed = true
	return t
}

// Flat returns the flattened representation. It panics if the type has not
// been committed (matching MPI's requirement that only committed types are
// used for communication).
func (t *Type) Flat() *Flat {
	if !t.committed {
		panic(fmt.Sprintf("datatype: %s used before Commit", t))
	}
	if t.flat == nil {
		// Basic types flatten trivially on demand.
		t.flat = t.flatten()
	}
	return t.flat
}

// String renders the constructor tree, compactly.
func (t *Type) String() string {
	var b strings.Builder
	t.describe(&b)
	return b.String()
}

func (t *Type) describe(b *strings.Builder) {
	switch t.kind {
	case KindBasic:
		b.WriteString(t.name)
	case KindContiguous:
		fmt.Fprintf(b, "contig(%d,", t.count)
		t.elem.describe(b)
		b.WriteString(")")
	case KindVector, KindHvector:
		// A vector's stride counts elements, unless they have no extent.
		stride := fmt.Sprintf("%dB", t.stride)
		if ext := t.elem.Extent(); t.kind == KindVector && ext != 0 {
			stride = fmt.Sprint(t.stride / ext)
		}
		fmt.Fprintf(b, "%s(%d,%d,%s,", t.kind, t.count, t.blocklen, stride)
		t.elem.describe(b)
		b.WriteString(")")
	case KindIndexed, KindHindexed:
		fmt.Fprintf(b, "%s(%d blocks,", t.kind, len(t.blocklens))
		t.elem.describe(b)
		b.WriteString(")")
	case KindStruct:
		b.WriteString("struct(")
		for i, f := range t.fields {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(b, "%d@%d:", f.Blocklen, f.Disp)
			f.Type.describe(b)
		}
		b.WriteString(")")
	}
}

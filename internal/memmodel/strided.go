package memmodel

// Strided describes a strided access: n bytes moved as Accesses pieces of
// Access bytes (the last one possibly shorter) placed Stride bytes apart,
// covering Span bytes of the strided side.
type Strided struct {
	Access, Stride, Accesses, Span int64
}

// StridedAccess normalises the (accessSize, stride) arguments every
// transport's strided operations take for n > 0 bytes: a non-positive or
// oversized access means one access of n bytes, and a stride below the
// access size means dense placement.
func StridedAccess(n, accessSize, stride int64) Strided {
	if accessSize <= 0 || accessSize > n {
		accessSize = n
	}
	if stride < accessSize {
		stride = accessSize
	}
	accesses := (n + accessSize - 1) / accessSize
	return Strided{
		Access: accessSize, Stride: stride, Accesses: accesses,
		Span: (accesses-1)*stride + (n - (accesses-1)*accessSize),
	}
}

// Scatter copies src into dst as accessSize-byte pieces stride apart.
func Scatter(dst, src []byte, accessSize, stride int64) {
	var so, do int64
	n := int64(len(src))
	for so < n {
		end := so + accessSize
		if end > n {
			end = n
		}
		copy(dst[do:], src[so:end])
		so = end
		do += stride
	}
}

// Gather is the inverse of Scatter: it collects accessSize-byte pieces
// stride apart in src densely into dst.
func Gather(dst, src []byte, accessSize, stride int64) {
	var so, do int64
	n := int64(len(dst))
	for do < n {
		end := do + accessSize
		if end > n {
			end = n
		}
		copy(dst[do:end], src[so:so+(end-do)])
		do = end
		so += stride
	}
}

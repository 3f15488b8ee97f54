package pack

// Descriptor is one element of a scatter-gather list in run-length form: a
// strided run of Count blocks of Len bytes, block i at SrcOff + i·Stride in
// the user buffer, that belongs at DstOff + i·Len of the (dense)
// linearization. A run is therefore contiguous on the destination side;
// Stride is ignored when Count is 1. Descriptor lists drive DMA engines
// that move non-contiguous data without a CPU pack pass (cf. Di Girolamo et
// al., "Network-Accelerated Non-Contiguous Memory Transfers").
//
// The flat list an entry stands for — one (SrcOff, DstOff, Len) per block —
// is what the cost model counts: d in PERFORMANCE.md §6 is the number of
// flat descriptors, as DescriptorRuns returns it.
type Descriptor struct {
	SrcOff int64 // user-buffer offset of the first block
	DstOff int64 // linearization offset, relative to the start of the call
	Len    int64 // block length in bytes
	Count  int64 // blocks in the run, at least 1
	Stride int64 // user-buffer distance between consecutive blocks
}

// Gather copies the entry's blocks from src into dst, block i from
// src[SrcOff+i·Stride:] to dst[DstOff+i·Len:].
func (d *Descriptor) Gather(dst, src []byte) {
	copyRun(dst, d.DstOff, d.Len, src, d.SrcOff, d.Stride, d.Len, d.Count)
}

// Descriptors appends the scatter-gather list of the next maxBytes bytes
// (negative: to the end) of the linearization to dst and advances the
// cursor, exactly like Pack but emitting descriptors instead of copying.
// Each strided run of the cursor becomes one entry. A block that is
// contiguous with the previous block on both the source and the
// destination side extends that block, so a dense sub-layout costs one
// entry rather than one per leaf block; extending the last block of a run
// splits it off into an entry of its own. DstOff is relative to the cursor
// position at the start of the call (the chunk convention shared with
// Pack).
//
// The returned slice is dst, possibly regrown; callers that reuse a slice
// with sufficient capacity across chunks (append into descs[:0]) complete
// the whole operation without allocating. The returned Stats describe the
// underlying block structure before merging — the traversal work the CPU
// actually performs to build the list.
func (c *Cursor) Descriptors(dst []Descriptor, maxBytes int64) ([]Descriptor, Stats) {
	base := len(dst)
	// Blocks within one run never touch in the source: commit folds an
	// innermost level whose stride is the block size into a larger block.
	_, st := c.run(c.clamp(maxBytes), func(userOff, linOff, n, stride, k int64) {
		if j := len(dst); j > base {
			last := &dst[j-1]
			lastSrc := last.SrcOff + (last.Count-1)*last.Stride
			lastDst := last.DstOff + (last.Count-1)*last.Len
			if lastSrc+last.Len == userOff && lastDst+last.Len == linOff {
				if last.Count > 1 {
					last.Count--
					dst = append(dst, Descriptor{SrcOff: lastSrc, DstOff: lastDst, Len: last.Len, Count: 1})
					last = &dst[j]
				}
				last.Len += n
				userOff += stride
				linOff += n
				k--
			}
		}
		if k > 0 {
			dst = append(dst, Descriptor{SrcOff: userOff, DstOff: linOff, Len: n, Count: k, Stride: stride})
		}
	})
	return dst, st
}

// DescriptorRuns returns the total byte count, the number of
// destination-contiguous runs (the streaming unit of a scatter-gather
// engine: source gathers that land back-to-back in the destination
// continue one stream transaction) and the number of flat descriptors —
// blocks — of a descriptor list.
func DescriptorRuns(descs []Descriptor) (bytes int64, runs, blocks int) {
	var end int64
	for i := range descs {
		d := &descs[i]
		bytes += d.Count * d.Len
		blocks += int(d.Count)
		if i == 0 || d.DstOff != end {
			runs++
		}
		end = d.DstOff + d.Count*d.Len
	}
	return bytes, runs, blocks
}

package obs

import (
	"math/bits"
	"time"
)

// histBuckets is the number of logarithmic buckets: bucket i collects
// values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0
// holds exact zeros. 64 buckets cover the whole int64 range.
const histBuckets = 65

// Histogram is a log-bucketed distribution of non-negative int64 samples
// (latencies in nanoseconds, byte counts, ...). Quantiles interpolate
// linearly inside a bucket and are clamped by the exact observed min and
// max, so a single-sample histogram reports that sample at every quantile.
// The nil histogram discards everything.
type Histogram struct {
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [histBuckets]int64
}

// Observe records one sample. Negative samples are clamped to zero. No-op
// on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// ObserveDuration records a latency sample in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Merge folds the samples of o into h (bucket-wise; quantiles of the
// merged histogram are as accurate as the buckets allow).
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || o.count == 0 {
		return
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
}

// HistSnapshot is a consistent point-in-time view of a histogram.
type HistSnapshot struct {
	Count, Sum     int64
	Min, Max, Mean int64
	P50, P95, P99  int64
	Buckets        [histBuckets]int64
}

// Snapshot returns a consistent copy with precomputed quantiles. The nil
// histogram snapshots to zeros.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count, s.Sum, s.Min, s.Max = h.count, h.sum, h.min, h.max
	s.Buckets = h.buckets
	if s.Count > 0 {
		s.Mean = s.Sum / s.Count
	}
	s.P50 = s.quantile(0.50)
	s.P95 = s.quantile(0.95)
	s.P99 = s.quantile(0.99)
	return s
}

// Quantile returns the q-quantile (0 <= q <= 1) of the recorded samples:
// 0 for an empty histogram, the exact sample for q at the edges, and a
// linear interpolation inside the covering bucket otherwise.
func (h *Histogram) Quantile(q float64) int64 {
	s := h.Snapshot()
	return s.Quantile(q)
}

// Quantile computes a quantile from the snapshot (see Histogram.Quantile).
func (s *HistSnapshot) Quantile(q float64) int64 { return s.quantile(q) }

func (s *HistSnapshot) quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	// 1-based rank of the sample the quantile falls on.
	rank := int64(q*float64(s.Count)) + 1
	if rank > s.Count {
		rank = s.Count
	}
	var seen int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketBounds(i)
			// Linear interpolation of the rank inside the bucket.
			frac := float64(rank-seen-1) / float64(n)
			v := lo + int64(frac*float64(hi-lo))
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		seen += n
	}
	return s.Max
}

// bucketBounds returns the inclusive value range [lo, hi] of bucket i.
func bucketBounds(i int) (lo, hi int64) {
	if i == 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		return lo, int64(^uint64(0) >> 1)
	}
	return lo, int64(1)<<i - 1
}

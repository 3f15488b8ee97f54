package obs

import (
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := &Histogram{}
	if h.count != 0 {
		t.Fatalf("empty count = %d", h.count)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Errorf("empty Quantile(%v) = %d, want 0", q, v)
		}
	}
	s := h.Snapshot()
	if s.Min != 0 || s.Max != 0 || s.Mean != 0 || s.Sum != 0 {
		t.Errorf("empty snapshot = %+v", s)
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := &Histogram{}
	h.Observe(1234)
	for _, q := range []float64{0, 0.25, 0.5, 0.95, 0.99, 1} {
		if v := h.Quantile(q); v != 1234 {
			t.Errorf("Quantile(%v) = %d, want 1234 (single sample)", q, v)
		}
	}
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 1234 || s.Max != 1234 || s.Mean != 1234 {
		t.Errorf("snapshot = %+v", s)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	// Zero goes to bucket 0; 1 to bucket 1 ([1,1]); 2,3 to bucket 2; etc.
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 40, 41},
	}
	for _, c := range cases {
		h := &Histogram{}
		h.Observe(c.v)
		s := h.Snapshot()
		if s.Buckets[c.bucket] != 1 {
			t.Errorf("Observe(%d): bucket %d empty (buckets %v...)", c.v, c.bucket, s.Buckets[:12])
		}
		lo, hi := bucketBounds(c.bucket)
		if c.v < lo || c.v > hi {
			t.Errorf("bucketBounds(%d) = [%d, %d] does not contain %d", c.bucket, lo, hi, c.v)
		}
	}
}

func TestHistogramQuantilesClampedByMinMax(t *testing.T) {
	h := &Histogram{}
	// Two samples in the same bucket [1024, 2047].
	h.Observe(1500)
	h.Observe(1600)
	if v := h.Quantile(0); v != 1500 {
		t.Errorf("q0 = %d, want min 1500", v)
	}
	if v := h.Quantile(1); v != 1600 {
		t.Errorf("q1 = %d, want max 1600", v)
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		v := h.Quantile(q)
		if v < 1500 || v > 1600 {
			t.Errorf("Quantile(%v) = %d outside [min, max]", q, v)
		}
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	h := &Histogram{}
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i * 100)
	}
	s := h.Snapshot()
	if !(s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max) {
		t.Fatalf("quantiles not ordered: p50=%d p95=%d p99=%d max=%d", s.P50, s.P95, s.P99, s.Max)
	}
	// p50 of 100..100000 uniform-ish over log buckets: must be in the
	// right half-order-of-magnitude at least.
	if s.P50 < 10000 || s.P50 > 100000 {
		t.Errorf("p50 = %d, grossly off for samples 100..100000", s.P50)
	}
	if s.Max != 100000 {
		t.Errorf("max = %d, want 100000", s.Max)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	a.Observe(10)
	a.Observe(20)
	b.Observe(5)
	b.Observe(40000)
	a.Merge(b)
	s := a.Snapshot()
	if s.Count != 4 || s.Min != 5 || s.Max != 40000 || s.Sum != 40035 {
		t.Fatalf("merged snapshot = %+v", s)
	}
	// Merging an empty histogram changes nothing.
	a.Merge(&Histogram{})
	if a.count != 4 {
		t.Errorf("merge of empty changed count to %d", a.count)
	}
	// Nil receivers and arguments are no-ops.
	var nilH *Histogram
	nilH.Merge(a)
	a.Merge(nilH)
	if a.count != 4 {
		t.Errorf("nil merge changed count to %d", a.count)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := &Histogram{}
	h.ObserveDuration(-5 * time.Nanosecond)
	if v := h.Quantile(1); v != 0 {
		t.Errorf("negative sample recorded as %d, want clamped 0", v)
	}
}

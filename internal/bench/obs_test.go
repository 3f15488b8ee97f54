package bench

import (
	"testing"

	"scimpich/internal/obs"
)

// TestMetricsOutCoversBareInterconnects: a driver that builds an
// interconnect without the MPI runtime publishes its counts into the
// ambient registry, so `repro -only fig1 -metrics-out F` reports the bytes
// the adapter moved: per size, 9 PIO and 9 DMA writes and 9 PIO reads.
func TestMetricsOutCoversBareInterconnects(t *testing.T) {
	obsMetrics = obs.NewRegistry()
	defer func() { obsMetrics = nil }()
	const size = 1024
	RunRaw([]int64{size})
	for _, c := range []struct {
		name string
		want int64
	}{
		{"sci.bytes.written", 18 * size},
		{"sci.bytes.read", 9 * size},
		{"sci.dma_transfers", 9},
	} {
		if got := obsMetrics.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}

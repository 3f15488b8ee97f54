package mpi

import (
	"testing"
	"time"

	"scimpich/internal/datatype"
)

// Protocol-selection tests: the device must route messages by size through
// the short, eager and rendezvous paths exactly at the configured
// thresholds, observable through the device statistics.

func statsAfterSend(t *testing.T, size int64) DeviceStats {
	t.Helper()
	var st DeviceStats
	Run(DefaultConfig(2, 1), func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send(make([]byte, size), int(size), datatype.Byte, 1, 0))
		case 1:
			must1(c.Recv(make([]byte, size), int(size), datatype.Byte, 0, 0))
			st = c.World().Stats(1)
		}
	})
	return st
}

func TestProtocolSelectionBoundaries(t *testing.T) {
	cases := []struct {
		size              int64
		short, eager, rdv int64
	}{
		{shortMax, 1, 0, 0},
		{shortMax + 1, 0, 1, 0},
		{eagerMax, 0, 1, 0},
		{eagerMax + 1, 0, 0, 1},
	}
	for _, cse := range cases {
		st := statsAfterSend(t, cse.size)
		if st.ShortRecvd != cse.short || st.EagerRecvd != cse.eager || st.RdvRecvd != cse.rdv {
			t.Errorf("size %d: short/eager/rdv = %d/%d/%d, want %d/%d/%d",
				cse.size, st.ShortRecvd, st.EagerRecvd, st.RdvRecvd, cse.short, cse.eager, cse.rdv)
		}
	}
}

func TestUnexpectedMessageCounting(t *testing.T) {
	Run(DefaultConfig(2, 1), func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Arrives before the receive is posted.
			must(c.Send(make([]byte, 64), 64, datatype.Byte, 1, 0))
			must1(c.Recv(nil, 0, datatype.Byte, 1, 1))
		case 1:
			c.Proc().Sleep(100 * time.Microsecond)
			must1(c.Recv(make([]byte, 64), 64, datatype.Byte, 0, 0))
			if st := c.World().Stats(1); st.Unexpected != 1 {
				t.Errorf("unexpected count = %d, want 1", st.Unexpected)
			}
			must(c.Send(nil, 0, datatype.Byte, 0, 1))
		}
	})
}

func TestBytesReceivedAccounting(t *testing.T) {
	const size = 96 << 10
	st := statsAfterSend(t, size)
	if st.BytesRecvd != size {
		t.Errorf("bytes received = %d, want %d", st.BytesRecvd, size)
	}
}

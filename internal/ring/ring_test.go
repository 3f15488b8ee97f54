package ring

import (
	"math"
	"testing"

	"scimpich/internal/flow"
)

func TestBandwidthForMHz(t *testing.T) {
	if got := BandwidthForMHz(166); math.Abs(got-633*MiB) > 1 {
		t.Errorf("166 MHz = %g MiB/s, want 633", got/MiB)
	}
	if got := BandwidthForMHz(200); math.Abs(got-762.65*MiB) > 0.5*MiB {
		t.Errorf("200 MHz = %g MiB/s, want ~762", got/MiB)
	}
}

func TestRouteLengths(t *testing.T) {
	r := New(8, 633*MiB, nil)
	cases := []struct{ a, b, want int }{
		{0, 1, 1}, {0, 7, 7}, {7, 0, 1}, {3, 3, 0}, {5, 2, 5},
	}
	for _, c := range cases {
		if got := len(r.Route(c.a, c.b)); got != c.want {
			t.Errorf("route %d->%d has %d segments, want %d", c.a, c.b, got, c.want)
		}
		if got := r.Distance(c.a, c.b); got != c.want {
			t.Errorf("distance %d->%d = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteStartsAtSource(t *testing.T) {
	r := New(4, 633*MiB, nil)
	path := r.Route(2, 0)
	if path[0] != r.Link(2) || path[1] != r.Link(3) {
		t.Errorf("route 2->0 = %v, want segments 2 then 3", path)
	}
}

func TestFullLoop(t *testing.T) {
	r := New(4, 633*MiB, nil)
	loop := r.FullLoop(1)
	if len(loop) != 4 {
		t.Fatalf("full loop has %d segments, want 4", len(loop))
	}
	seen := map[*flow.Link]bool{}
	for _, l := range loop {
		seen[l] = true
	}
	if len(seen) != 4 {
		t.Errorf("full loop repeats segments: %d distinct of 4", len(seen))
	}
	if loop[0] != r.Link(1) {
		t.Errorf("full loop from 1 starts at %p, want segment 1 (%p)", loop[0], r.Link(1))
	}
}

func TestRouteOutOfRangePanics(t *testing.T) {
	r := New(4, 633*MiB, nil)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range route did not panic")
		}
	}()
	r.Route(0, 4)
}

package sci

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"scimpich/internal/obs"
	"scimpich/internal/pack"
	"scimpich/internal/sim"
)

// accessOps is every way to touch a mapped segment, each moving 64 bytes
// at off and returning its failure. DMA ops wait for their request, which
// reports a transfer-time failure like a submission-time one.
var accessOps = []struct {
	name  string
	reads bool
	do    func(p *sim.Proc, m *Mapping, off int64, buf []byte) error
}{
	{"WriteStream", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.WriteStream(p, off, buf, 0)
	}},
	{"WriteStrided", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.WriteStrided(p, off, buf, 64, 64)
	}},
	{"WritePut", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.WritePut(p, off, buf, 64, 64)
	}},
	{"WriteWord", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.WriteWord(p, off, buf)
	}},
	{"BlockWriter", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		w := m.NewBlockWriter(p, 64)
		w.Write(off, buf)
		return w.Flush()
	}},
	{"DMAWrite", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.DMAWrite(p, off, buf).Wait(p)
	}},
	{"DMAWriteSG", false, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		descs := []pack.Descriptor{{SrcOff: 0, DstOff: 0, Len: 64, Count: 1}}
		return m.DMAWriteSG(p, off, buf, descs).Wait(p)
	}},
	{"Read", true, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.Read(p, off, buf)
	}},
	{"ReadStrided", true, func(p *sim.Proc, m *Mapping, off int64, buf []byte) error {
		return m.ReadStrided(p, off, buf, 64, 64)
	}},
}

// TestAccessOpsCheckRangeAndState: every access op fails an out-of-range
// window (also one whose end would wrap past math.MaxInt64), a revoked
// segment and a dead owner with the same typed errors, and moves the bytes
// otherwise.
func TestAccessOpsCheckRangeAndState(t *testing.T) {
	for _, op := range accessOps {
		op := op
		t.Run(op.name, func(t *testing.T) {
			e, ic := testCluster(4)
			good := ic.Node(1).Export(256)
			revoked := ic.Node(2).Export(256)
			orphan := ic.Node(3).Export(256)
			mg := ic.Node(0).MustImport(1, good.ID())
			mr := ic.Node(0).MustImport(2, revoked.ID())
			mo := ic.Node(0).MustImport(3, orphan.ID())
			ic.RevokeSegment(2, revoked.ID())
			ic.FailNode(3)
			want := fill(64)
			e.Go("p", func(p *sim.Proc) {
				buf := append([]byte(nil), want...)
				if op.reads {
					copy(good.Local()[128:], want)
					buf = make([]byte, 64)
				}
				if err := op.do(p, mg, 128, buf); err != nil {
					t.Errorf("in range: %v", err)
				}
				mg.from.StoreBarrier(p)
				got := good.Local()[128:192]
				if op.reads {
					got = buf
				}
				if !bytes.Equal(got, want) {
					t.Error("in range: bytes did not arrive")
				}

				for _, off := range []int64{200, math.MaxInt64 - 4} {
					var oor ErrOutOfRange
					if err := op.do(p, mg, off, buf); !errors.As(err, &oor) {
						t.Errorf("out of range at %d: got %v, want ErrOutOfRange", off, err)
					} else if oor != (ErrOutOfRange{Off: off, Len: 64, Size: 256}) {
						t.Errorf("out of range at %d: error = %+v", off, oor)
					}
				}
				var lost ErrSegmentLost
				if err := op.do(p, mr, 0, buf); !errors.As(err, &lost) {
					t.Errorf("revoked: got %v, want ErrSegmentLost", err)
				} else if lost.Owner != 2 || lost.Seg != revoked.ID() {
					t.Errorf("revoked: error = %+v", lost)
				}
				var conn ErrConnectionLost
				if err := op.do(p, mo, 0, buf); !errors.As(err, &conn) {
					t.Errorf("dead owner: got %v, want ErrConnectionLost", err)
				} else if conn.From != 0 || conn.To != 3 {
					t.Errorf("dead owner: error = %+v", conn)
				}
			})
			e.Run()
			if revoked.mem.Resident() {
				t.Error("a failed access materialised the revoked segment")
			}
		})
	}
}

// TestAccessOpsPublishTheirBytes: every access op counts the bytes it moves
// in its node's Stats, and Publish adds them to sci.bytes.written or
// sci.bytes.read: a word write too.
func TestAccessOpsPublishTheirBytes(t *testing.T) {
	for _, op := range accessOps {
		e := sim.NewEngine()
		cfg := DefaultConfig(2)
		cfg.Metrics = obs.NewRegistry()
		ic := New(e, cfg)
		m := ic.Node(0).MustImport(1, ic.Node(1).Export(256).ID())
		e.Go("p", func(p *sim.Proc) {
			if err := op.do(p, m, 0, fill(64)); err != nil {
				t.Errorf("%s: %v", op.name, err)
			}
			ic.Node(0).StoreBarrier(p)
		})
		e.Run()
		ic.Publish(cfg.Metrics)
		name, counted := "sci.bytes.written", ic.Node(0).Snapshot().BytesWritten
		if op.reads {
			name, counted = "sci.bytes.read", ic.Node(0).Snapshot().BytesRead
		}
		if got := cfg.Metrics.Counter(name).Value(); counted != 64 || got != counted {
			t.Errorf("%s moved 64 B: the node counted %d, %s reads %d", op.name, counted, name, got)
		}
	}
}

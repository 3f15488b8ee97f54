package sci

import (
	"errors"
	"testing"
	"time"

	"scimpich/internal/sim"
)

func TestTransferToDeadNodeRaisesConnectionLost(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		ic.FailNode(1)
		defer func() {
			r := recover()
			if r == nil {
				t.Error("transfer to dead node did not raise")
				return
			}
			var lost ErrConnectionLost
			err, ok := r.(error)
			if !ok || !errors.As(err, &lost) {
				t.Errorf("raised %v, want ErrConnectionLost", r)
				return
			}
			if lost.From != 0 || lost.To != 1 {
				t.Errorf("lost = %+v", lost)
			}
		}()
		m.WriteStream(p, 0, make([]byte, 64<<10), 0)
	})
	e.Run()
}

func TestTransferRetriesThroughTransientFailure(t *testing.T) {
	e, ic := testCluster(2)
	seg := ic.Node(1).Export(1 << 20)
	e.Go("writer", func(p *sim.Proc) {
		m := ic.Node(0).MustImport(1, seg.ID())
		ic.FailNode(1)
		// The connection returns while the adapter is still retrying.
		e.After(RetryLatency+time.Microsecond, func() { ic.RestoreNode(1) })
		m.WriteStream(p, 0, make([]byte, 64<<10), 0)
		ic.Node(0).StoreBarrier(p)
		if ic.Node(0).Snapshot().Retries == 0 {
			t.Error("no retries recorded across the transient failure")
		}
	})
	e.Run()
}

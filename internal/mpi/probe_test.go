package mpi

import (
	"bytes"
	"testing"
	"time"

	"scimpich/internal/datatype"
)

func TestProbeBlockingAndStatus(t *testing.T) {
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Proc().Sleep(100 * time.Microsecond)
			must(c.Send(fill(500), 500, datatype.Byte, 1, 42))
		case 1:
			start := c.WtimeDuration()
			st := must1(c.Probe(AnySource, AnyTag))
			if c.WtimeDuration()-start < 100*time.Microsecond {
				t.Error("probe returned before any message was sent")
			}
			if st.Source != 0 || st.Tag != 42 || st.Bytes != 500 {
				t.Errorf("probe status = %+v", st)
			}
			// The message is still there: receive it normally.
			buf := make([]byte, st.Bytes)
			must1(c.Recv(buf, int(st.Bytes), datatype.Byte, st.Source, st.Tag))
			if !bytes.Equal(buf, fill(500)) {
				t.Error("data corrupted after probe")
			}
		}
	})
}

func TestIprobe(t *testing.T) {
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send([]byte{1}, 1, datatype.Byte, 1, 5))
			must(c.Send(nil, 0, datatype.Byte, 1, 6)) // "sent" signal
		case 1:
			if _, ok, err := c.Iprobe(0, 99); ok || err != nil {
				t.Errorf("Iprobe of a nonexistent message: matched %v, err %v", ok, err)
			}
			must1(c.Recv(nil, 0, datatype.Byte, 0, 6)) // wait for the signal
			st, ok, err := c.Iprobe(0, 5)
			if !ok || err != nil || st.Bytes != 1 {
				t.Errorf("Iprobe missed the queued message: %v %v %v", st, ok, err)
			}
			buf := make([]byte, 1)
			must1(c.Recv(buf, 1, datatype.Byte, 0, 5))
		}
	})
}

func TestProbeThenWildcardRecvConsistent(t *testing.T) {
	// Probe + Recv(st.Source, st.Tag) must retrieve the probed message
	// even with multiple candidates queued.
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			must(c.Send([]byte{10}, 1, datatype.Byte, 1, 1))
			must(c.Send([]byte{20}, 1, datatype.Byte, 1, 2))
		case 1:
			st := must1(c.Probe(0, AnyTag))
			buf := make([]byte, 1)
			got := must1(c.Recv(buf, 1, datatype.Byte, st.Source, st.Tag))
			if got.Tag != st.Tag {
				t.Errorf("received tag %d after probing tag %d", got.Tag, st.Tag)
			}
			// Non-overtaking: the first probe must see tag 1.
			if st.Tag != 1 || buf[0] != 10 {
				t.Errorf("probe saw tag %d value %d, want the first message", st.Tag, buf[0])
			}
			must1(c.Recv(buf, 1, datatype.Byte, 0, 2))
		}
	})
}

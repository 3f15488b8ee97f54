package mpi

import (
	"bytes"
	"testing"
	"time"

	"scimpich/internal/datatype"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	Run(DefaultConfig(1, 1), func(c *Comm) {
		ty := datatype.Vector(8, 2, 4, datatype.Float64).Commit()
		user := fill(int(ty.Extent()) + 64)
		out := make([]byte, PackSize(1, ty)+PackSize(4, datatype.Int32))
		var pos int64
		c.Pack(user, 1, ty, out, &pos)
		ints := Int32Bytes([]int32{1, 2, 3, 4})
		c.Pack(ints, 4, datatype.Int32, out, &pos)
		if pos != int64(len(out)) {
			t.Fatalf("position = %d, want %d", pos, len(out))
		}

		back := make([]byte, len(user))
		gotInts := make([]byte, 16)
		pos = 0
		c.Unpack(out, &pos, back, 1, ty)
		c.Unpack(out, &pos, gotInts, 4, datatype.Int32)
		if !bytes.Equal(gotInts, ints) {
			t.Error("int segment corrupted")
		}
		for _, b := range ty.TypeMap() {
			if !bytes.Equal(back[b.Off:b.Off+b.Len], user[b.Off:b.Off+b.Len]) {
				t.Fatalf("typed segment corrupted at %d", b.Off)
			}
		}
	})
}

func TestPackedBufferInteroperatesWithByteSend(t *testing.T) {
	// Pack on the sender, ship as bytes, unpack on the receiver — the MPI
	// packed-data interop guarantee.
	ty := datatype.Indexed([]int{2, 3}, []int{0, 4}, datatype.Int32).Commit()
	user := fill(int(ty.Extent()) + 64)
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			out := make([]byte, PackSize(2, ty))
			var pos int64
			c.Pack(user, 2, ty, out, &pos)
			must(c.Send(out, int(pos), datatype.Byte, 1, 0))
		case 1:
			in := make([]byte, PackSize(2, ty))
			must1(c.Recv(in, len(in), datatype.Byte, 0, 0))
			back := make([]byte, len(user))
			var pos int64
			c.Unpack(in, &pos, back, 2, ty)
			for i := 0; i < 2; i++ {
				base := int64(i) * ty.Extent()
				for _, b := range ty.TypeMap() {
					if !bytes.Equal(back[base+b.Off:base+b.Off+b.Len], user[base+b.Off:base+b.Off+b.Len]) {
						t.Fatalf("instance %d block at %d corrupted", i, b.Off)
					}
				}
			}
		}
	})
}

func TestPackOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("overflowing Pack did not panic")
		}
	}()
	Run(DefaultConfig(1, 1), func(c *Comm) {
		out := make([]byte, 4)
		var pos int64
		c.Pack(make([]byte, 64), 8, datatype.Float64, out, &pos)
	})
}

func TestProbeBlockingAndStatus(t *testing.T) {
	runPair(t, func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Proc().Sleep(100 * time.Microsecond)
			must(c.Send(fill(500), 500, datatype.Byte, 1, 42))
		case 1:
			start := c.WtimeDuration()
			st := c.Probe(AnySource, AnyTag)
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
			if _, ok := c.Iprobe(0, 99); ok {
				t.Error("Iprobe matched a nonexistent message")
			}
			must1(c.Recv(nil, 0, datatype.Byte, 0, 6)) // wait for the signal
			st, ok := c.Iprobe(0, 5)
			if !ok || st.Bytes != 1 {
				t.Errorf("Iprobe missed the queued message: %v %v", st, ok)
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
			st := c.Probe(0, AnyTag)
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

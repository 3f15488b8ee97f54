package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/fault"
	"scimpich/internal/obs/flight"
)

// Elastic-world tests: shrink-to-survivors agreement, revocation fast-fail
// semantics, and the restore-after-crash containment guarantees.

// elasticConfig is a 4-node cluster with every watchdog on the scaled
// AutoTimeout bound and a fault plan attached.
func elasticConfig(plan *fault.Plan) Config {
	cfg := DefaultConfig(4, 1)
	cfg.SCI.Fault = plan
	cfg.Protocol.CollTimeout = AutoTimeout
	cfg.Protocol.RendezvousTimeout = AutoTimeout
	return cfg
}

// shrinkWhenNeeded drives a checked collective through crash recovery: on
// error it shrinks and retries on the new communicator.
func shrinkWhenNeeded(t *testing.T, c *Comm, body func(c *Comm) error) (*Comm, error) {
	t.Helper()
	for attempt := 0; attempt < 4; attempt++ {
		err := body(c)
		if err == nil {
			return c, nil
		}
		nc, serr := c.Shrink()
		if serr != nil {
			return nil, serr
		}
		c = nc
	}
	return c, errors.New("collective never recovered")
}

func TestShrinkAfterCrashAllreduce(t *testing.T) {
	plan := fault.New(5).CrashNode(2, 400*time.Microsecond)
	type result struct {
		survivors []int
		sum       float64
		revoked   bool
	}
	results := make([]result, 4)
	Run(elasticConfig(plan), func(c *Comm) {
		me := c.Rank()
		c.Proc().Sleep(time.Millisecond) // let the crash land
		send := Float64Bytes([]float64{float64(me + 1)})
		recv := make([]byte, 8)
		nc, err := shrinkWhenNeeded(t, c, func(c *Comm) error {
			return c.Allreduce(send, recv, 1, datatype.Float64, OpSum)
		})
		if err != nil {
			var rev *RevokedRankError
			if errors.As(err, &rev) && rev.Rank == me {
				results[me].revoked = true
				return
			}
			t.Errorf("rank %d: recovery failed: %v", me, err)
			return
		}
		for i := 0; i < nc.Size(); i++ {
			results[me].survivors = append(results[me].survivors, nc.GroupToWorld(i))
		}
		results[me].sum = BytesFloat64(recv)[0]
	})
	want := []int{0, 1, 3}
	for _, me := range want {
		r := results[me]
		if r.revoked {
			t.Fatalf("survivor %d saw itself revoked", me)
		}
		if len(r.survivors) != 3 {
			t.Fatalf("rank %d: survivor set %v, want %v", me, r.survivors, want)
		}
		for i, s := range want {
			if r.survivors[i] != s {
				t.Fatalf("rank %d: survivor set %v, want %v", me, r.survivors, want)
			}
		}
		// 1 + 2 + 4: contributions of world ranks 0, 1, 3.
		if r.sum != 7 {
			t.Errorf("rank %d: allreduce sum %v, want 7", me, r.sum)
		}
	}
	if !results[2].revoked {
		t.Errorf("crashed rank 2 did not observe its own revocation")
	}
}

func TestShrinkMidAgreementCrash(t *testing.T) {
	// Node 3 crashes first; node 2 crashes while the survivors are inside
	// the recovery (agreement or confirmation). The confirm-retry loop must
	// converge on {0, 1}.
	plan := fault.New(9).
		CrashNode(3, 300*time.Microsecond).
		CrashNode(2, 900*time.Microsecond)
	survivors := make([][]int, 4)
	var sums [4]float64
	Run(elasticConfig(plan), func(c *Comm) {
		me := c.Rank()
		c.Proc().Sleep(600 * time.Microsecond)
		send := Float64Bytes([]float64{float64(me + 1)})
		recv := make([]byte, 8)
		nc, err := shrinkWhenNeeded(t, c, func(c *Comm) error {
			return c.Allreduce(send, recv, 1, datatype.Float64, OpSum)
		})
		if err != nil {
			var rev *RevokedRankError
			if errors.As(err, &rev) {
				return
			}
			t.Errorf("rank %d: recovery failed: %v", me, err)
			return
		}
		for i := 0; i < nc.Size(); i++ {
			survivors[me] = append(survivors[me], nc.GroupToWorld(i))
		}
		sums[me] = BytesFloat64(recv)[0]
	})
	for _, me := range []int{0, 1} {
		if len(survivors[me]) != 2 || survivors[me][0] != 0 || survivors[me][1] != 1 {
			t.Fatalf("rank %d: survivor set %v, want [0 1]", me, survivors[me])
		}
		if sums[me] != 3 {
			t.Errorf("rank %d: allreduce sum %v, want 3", me, sums[me])
		}
	}
	for _, me := range []int{2, 3} {
		if survivors[me] != nil {
			t.Errorf("crashed rank %d completed recovery with survivors %v", me, survivors[me])
		}
	}
}

func TestRevokedFastFail(t *testing.T) {
	plan := fault.New(7).CrashNode(1, 300*time.Microsecond)
	var sendElapsed time.Duration
	var sendErr, pendingErr error
	Run(elasticConfig(plan), func(c *Comm) {
		me := c.Rank()
		var pending *Request
		if me == 0 {
			// Posted before the crash; revocation must fail it without a
			// matching message ever arriving.
			pending = c.Irecv(make([]byte, 8), 8, datatype.Byte, 1, 77)
		}
		c.Proc().Sleep(time.Millisecond)
		nc, err := c.Shrink()
		if err != nil {
			var rev *RevokedRankError
			if !errors.As(err, &rev) || me != 1 {
				t.Errorf("rank %d: shrink failed: %v", me, err)
			}
			return
		}
		if me != 0 {
			return
		}
		if !c.World().revoked[1] {
			t.Error("rank 1 not revoked after shrink")
		}
		_ = nc
		// The pre-posted receive must already be complete with the typed error.
		if !pending.done.Done() {
			t.Error("pre-posted receive from the revoked rank still pending")
		}
		_, pendingErr = pending.Wait()
		// A send to the revoked world rank fails fast: no watchdog wait.
		start := c.Proc().Now()
		sendErr = c.Send(make([]byte, 64<<10), 64<<10, datatype.Byte, 1, 5)
		sendElapsed = c.Proc().Now() - start
	})
	var rev *RevokedRankError
	if !errors.As(sendErr, &rev) || rev.Rank != 1 {
		t.Fatalf("send to revoked rank: got %v, want *RevokedRankError{1}", sendErr)
	}
	if !errors.As(pendingErr, &rev) || rev.Rank != 1 {
		t.Fatalf("pre-posted receive: got %v, want *RevokedRankError{1}", pendingErr)
	}
	if sendElapsed > 100*time.Microsecond {
		t.Errorf("send to revoked rank took %v, want fast failure", sendElapsed)
	}
}

// TestArrivalRevokesTheCommunicator pins when a member's arrival in the
// agreement becomes visible: node 2 crashes, rank 0 enters Shrink, and
// rank 1, which polls Comm.Lost every 100 ns, reads CommRevokedError
// from the first poll at or after rank 0's arrival plus one slow control
// write, and nil before. The error is not a *RevokedRankError (rank 1 is
// alive and must not stop); rank 1 then joins, both adopt [0 1], the
// shrunk communicator starts unrevoked and the old one stays revoked.
func TestArrivalRevokesTheCommunicator(t *testing.T) {
	const enter = 200 * time.Microsecond
	const poll = 100 * time.Nanosecond
	cfg := DefaultConfig(3, 1)
	cfg.SCI.Fault = fault.New(1).CrashNode(2, 100*time.Microsecond)
	cfg.Protocol.CollTimeout = AutoTimeout
	joined := 0
	Run(cfg, func(c *Comm) {
		p := c.Proc()
		switch c.Rank() {
		case 2:
			return
		case 0:
			if err := c.Lost(); err != nil {
				t.Errorf("rank 0: revoked before anyone shrank: %v", err)
			}
			p.Sleep(enter - p.Now())
		case 1:
			visible := enter + callOverhead + c.w.slowCtl()
			p.Sleep(enter - 10*time.Microsecond - p.Now())
			for c.Lost() == nil {
				if p.Now() >= visible {
					t.Fatalf("rank 1: not revoked at %v, visible from %v", p.Now(), visible)
				}
				p.Sleep(poll)
			}
			if p.Now() < visible || p.Now() >= visible+poll {
				t.Errorf("rank 1: revoked from %v, want the first poll at or after %v", p.Now(), visible)
			}
			err := c.Lost()
			var cre CommRevokedError
			var rre *RevokedRankError
			if !errors.As(err, &cre) || errors.As(err, &rre) {
				t.Errorf("rank 1: Lost() = %T %v, want CommRevokedError only", err, err)
			}
			if err := c.peerLost(c.WorldRank()); err != nil {
				t.Errorf("rank 1: peerLost(self) = %v on a live rank of a revoked communicator", err)
			}
		}
		nc, err := c.Shrink()
		if err != nil {
			t.Errorf("rank %d: shrink: %v", c.Rank(), err)
			return
		}
		if got := []int{nc.GroupToWorld(0), nc.GroupToWorld(1)}; nc.Size() != 2 || got[0] != 0 || got[1] != 1 {
			t.Errorf("rank %d: adopted %d members %v, want [0 1]", c.Rank(), nc.Size(), got)
		}
		if err := nc.Lost(); err != nil {
			t.Errorf("rank %d: the shrunk communicator starts revoked: %v", c.Rank(), err)
		}
		if err := c.Lost(); err == nil {
			t.Errorf("rank %d: the old communicator is no longer revoked after Shrink", c.Rank())
		}
		joined++
	})
	if joined != 2 {
		t.Errorf("%d survivors shrank, want 2", joined)
	}
}

// TestRestoredNodeCannotCorrupt covers fault.Plan.RestoreNode against a
// world that shrank past the crash: the restored rank's stale traffic
// (sequence numbers from before the crash, fresh sends, collective
// deposits) must never corrupt the survivors, and its own operations must
// fail with the typed revocation error.
func TestRestoredNodeCannotCorrupt(t *testing.T) {
	plan := fault.New(11).
		CrashNode(1, 300*time.Microsecond).
		RestoreNode(1, 1500*time.Microsecond)
	var restoredSendErr, restoredCollErr error
	var survivorSums [4]float64
	Run(elasticConfig(plan), func(c *Comm) {
		me := c.Rank()
		c.Proc().Sleep(700 * time.Microsecond) // crash landed, restore pending
		nc, err := c.Shrink()
		if err != nil {
			var rev *RevokedRankError
			if !errors.As(err, &rev) || me != 1 {
				t.Errorf("rank %d: shrink failed: %v", me, err)
				return
			}
			// The revoked rank waits out its restore, then attacks the world.
			c.Proc().Sleep(time.Millisecond)
			restoredSendErr = c.Send(fill(256), 256, datatype.Byte, 0, 99)
			restoredCollErr = c.Allreduce(
				Float64Bytes([]float64{1000}), make([]byte, 8), 1, datatype.Float64, OpSum)
			return
		}
		// Survivors keep computing well past the restore instant; the
		// reduction value proves no stale deposit or message leaked in.
		send := Float64Bytes([]float64{float64(me + 1)})
		recv := make([]byte, 8)
		for i := 0; i < 6; i++ {
			c.Proc().Sleep(300 * time.Microsecond)
			if err := nc.Allreduce(send, recv, 1, datatype.Float64, OpSum); err != nil {
				t.Errorf("rank %d: post-shrink allreduce %d failed: %v", me, i, err)
				return
			}
		}
		survivorSums[me] = BytesFloat64(recv)[0]
	})
	var rev *RevokedRankError
	if !errors.As(restoredSendErr, &rev) {
		t.Errorf("restored rank send: got %v, want *RevokedRankError", restoredSendErr)
	}
	if !errors.As(restoredCollErr, &rev) {
		t.Errorf("restored rank allreduce: got %v, want *RevokedRankError", restoredCollErr)
	}
	for _, me := range []int{0, 2, 3} {
		// 1 + 3 + 4: world ranks 0, 2, 3 contribute rank+1.
		if survivorSums[me] != 8 {
			t.Errorf("rank %d: post-restore allreduce sum %v, want 8", me, survivorSums[me])
		}
	}
}

func TestShrinkDeterministicPerSeed(t *testing.T) {
	run := func() (time.Duration, [4][]int) {
		plan := fault.New(13).CrashNode(2, 450*time.Microsecond)
		var sets [4][]int
		end := Run(elasticConfig(plan), func(c *Comm) {
			me := c.Rank()
			c.Proc().Sleep(time.Millisecond)
			nc, err := c.Shrink()
			if err != nil {
				return
			}
			for i := 0; i < nc.Size(); i++ {
				sets[me] = append(sets[me], nc.GroupToWorld(i))
			}
			if err := nc.Barrier(); err != nil {
				t.Errorf("rank %d: post-shrink barrier: %v", me, err)
			}
		})
		return end, sets
	}
	end1, sets1 := run()
	end2, sets2 := run()
	if end1 != end2 {
		t.Fatalf("non-deterministic recovery: end times %v vs %v", end1, end2)
	}
	for me := range sets1 {
		if len(sets1[me]) != len(sets2[me]) {
			t.Fatalf("rank %d: survivor sets differ across identical runs: %v vs %v",
				me, sets1[me], sets2[me])
		}
		for i := range sets1[me] {
			if sets1[me][i] != sets2[me][i] {
				t.Fatalf("rank %d: survivor sets differ across identical runs: %v vs %v",
					me, sets1[me], sets2[me])
			}
		}
	}
}

// TestShrunkCommunicatorIsItsOwnGroup: a shrunken communicator numbers its
// members locally — in a point-to-point destination and in the Source of a
// wildcard receive's status — and has a context of its own, so the same
// (source, tag) sent on the old communicator does not match on it.
func TestShrunkCommunicatorIsItsOwnGroup(t *testing.T) {
	plan := fault.New(5).CrashNode(2, 400*time.Microsecond)
	Run(elasticConfig(plan), func(c *Comm) {
		if c.Rank() == 2 {
			return
		}
		c.Proc().Sleep(time.Millisecond) // let the crash land
		nc, err := c.Shrink()
		if err != nil {
			t.Errorf("rank %d: shrink: %v", c.Rank(), err)
			return
		}
		if nc.ctx == c.ctx {
			t.Errorf("rank %d: shrunken communicator shares context %d", c.Rank(), c.ctx)
		}
		switch nc.Rank() {
		case 2: // world rank 3
			must(c.Send([]byte{1}, 1, datatype.Byte, 0, 7))
			must(nc.Send([]byte{2}, 1, datatype.Byte, 0, 7))
		case 0:
			buf := make([]byte, 1)
			st := must1(nc.Recv(buf, 1, datatype.Byte, AnySource, 7))
			if buf[0] != 2 || st.Source != 2 {
				t.Errorf("shrunken recv: byte %d from rank %d, want 2 from local rank 2", buf[0], st.Source)
			}
			st = must1(c.Recv(buf, 1, datatype.Byte, 3, 7))
			if buf[0] != 1 || st.Source != 3 {
				t.Errorf("world recv: byte %d from rank %d, want 1 from rank 3", buf[0], st.Source)
			}
		}
	})
}

// TestShrinkAgreementIDs pins the flight id of the agreement each Shrink
// call joins, the digest of "mpi.shrink.<ctx>.<seq>" with seq counting the
// calls on one communicator, over three calls: the world communicator's
// first Shrink, its second, and the first Shrink on the communicator the
// first one made, after a second crash. Every member records the id in its
// KShrinkDeposit and KShrinkAdopt, so post-mortem dumps of one run compare
// across versions; every survivor of one agreement gets the same group and
// adopts the same dead set.
func TestShrinkAgreementIDs(t *testing.T) {
	plan := fault.New(3).CrashNode(3, 300*time.Microsecond).CrashNode(2, 3*time.Millisecond)
	cfg := elasticConfig(plan)
	rec := flight.New(4096)
	cfg.Flight = rec
	const calls = 3
	var ids [4][]int64         // per rank: the id of each agreement it joined
	var groups [calls][4][]int // per call and rank: the group it got
	Run(cfg, func(c *Comm) {
		me := c.Rank()
		shrink := func(call int, on *Comm, seq int) *Comm {
			ids[me] = append(ids[me], flight.DigestString(fmt.Sprintf("mpi.shrink.%d.%d", on.ctx, seq)))
			nc, err := on.Shrink()
			if err != nil {
				t.Errorf("rank %d: call %d: %v", me, call, err)
				return nil
			}
			groups[call][me] = nc.groupRanks()
			return nc
		}
		if me == 3 { // crashed before the first call
			return
		}
		c.Proc().Sleep(time.Millisecond)
		first := shrink(0, c, 1)
		shrink(1, c, 2)
		if me == 2 || first == nil { // node 2 crashes at 3 ms
			return
		}
		c.Proc().Sleep(4*time.Millisecond - c.WtimeDuration())
		shrink(2, first, 1)
	})
	wantGroups := [calls][]int{{0, 1, 2}, {0, 1, 2}, {0, 1}}
	for call, members := range wantGroups {
		for _, me := range members {
			if got := groups[call][me]; !slices.Equal(got, members) {
				t.Errorf("call %d: rank %d got group %v, want %v", call, me, got, members)
			}
		}
	}
	adopted := map[int64][2]int64{} // agreement id -> the dead set's count and digest
	for me := range 3 {
		var deposits, adopts []int64
		for _, e := range rec.Actor(fmt.Sprintf("rank%d", me)).Events() {
			switch e.Kind {
			case flight.KShrinkDeposit:
				deposits = append(deposits, e.A)
			case flight.KShrinkAdopt:
				adopts = append(adopts, e.A)
				dead := [2]int64{e.B, e.C}
				if prev, ok := adopted[e.A]; ok && prev != dead {
					t.Errorf("rank %d adopted dead set %v in agreement %x, another member %v", me, dead, e.A, prev)
				}
				adopted[e.A] = dead
			}
		}
		if !slices.Equal(deposits, ids[me]) || !slices.Equal(adopts, ids[me]) {
			t.Errorf("rank %d: deposit ids %x, adopt ids %x, want %x", me, deposits, adopts, ids[me])
		}
	}
	if len(adopted) != calls {
		t.Errorf("%d agreements adopted, want %d", len(adopted), calls)
	}
}

// TestWorldHoldsNoTables fails, naming the field, on a map-typed field of
// World. What a communicator, window or call needs of its members hangs off
// that object, which every member reaches, so it goes when the object does:
// a world table keyed by it outlives its use and grows with every call.
func TestWorldHoldsNoTables(t *testing.T) {
	wt := reflect.TypeFor[World]()
	for i := range wt.NumField() {
		if f := wt.Field(i); f.Type.Kind() == reflect.Map {
			t.Errorf("World.%s is a %s: keep the state on the object it serves", f.Name, f.Type)
		}
	}
}

package rmem

import (
	"errors"
	"testing"

	"scimpich/internal/allocwin"
	"scimpich/internal/mpi"
)

// TestAllocsOpBudget pins the service's operations on a warm store. Every
// rank runs the same loops in step, so the windows rank 0 opens hold the
// work of all of them. A Put and a Get allocate nothing: the slot image is
// the Service's scratch and the staged write a row of its dense pending
// table. Nor does a Commit, which is one Fence: its fence-arrival
// notifications carry their kind, window and round in the envelope's
// integer fields, with no request record.
func TestAllocsOpBudget(t *testing.T) {
	const warm, n, rounds = 20, 200, 20
	const nodes = 4 // testConfig's world
	cfg := DefaultConfig()
	keys := cfg.Keys()
	ops, commits := allocwin.New(t), allocwin.New(t)
	mpi.Run(testConfig(nil), func(c *mpi.Comm) {
		svc, err := New(c, cfg)
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		me := int64(c.WorldRank())
		val := make([]byte, cfg.ValBytes)
		key := func(i int) int64 { return (int64(i)*nodes + me) % keys }
		for i := 0; i < warm+n; i++ {
			if i == warm && me == 0 {
				ops.Open()
			}
			if err := svc.Put(key(i), val); err != nil {
				t.Errorf("Put: %v", err)
			}
			if _, err := svc.Get(key(i+1), val); err != nil {
				t.Errorf("Get: %v", err)
			}
		}
		if me == 0 {
			ops.Close()
		}
		for r := 0; r < warm+rounds; r++ {
			if r == warm && me == 0 {
				commits.Open()
			}
			if err := svc.Put(key(r), val); err != nil {
				t.Errorf("Put: %v", err)
			}
			if err := svc.Commit(); err != nil {
				t.Errorf("Commit: %v", err)
			}
		}
		if me == 0 {
			commits.Close()
		}
	})
	perOp := float64(ops.Objects()) / (nodes * 2 * n)
	perCommit := float64(commits.Objects()) / rounds
	t.Logf("Put/Get: %.3f objects; staged Put + Commit on %d ranks: %.2f objects", perOp, nodes, perCommit)
	if allocwin.RaceEnabled {
		return
	}
	if perOp >= 0.1 {
		t.Errorf("%.3f objects per Put or Get, want none", perOp)
	}
	if perCommit >= 0.5 {
		t.Errorf("%.2f objects per commit round on %d ranks, want none", perCommit, nodes)
	}
}

// TestBadKeyAndValueRefused: a key outside the key space would alias
// another key's slot, and a value larger than the slot payload would not
// fit; Put and Get refuse both with a typed error and touch nothing.
func TestBadKeyAndValueRefused(t *testing.T) {
	cfg := DefaultConfig()
	keys := cfg.Keys()
	mpi.Run(testConfig(nil), func(c *mpi.Comm) {
		svc, err := New(c, cfg)
		if err != nil {
			t.Errorf("New: %v", err)
			return
		}
		small, big := make([]byte, cfg.ValBytes), make([]byte, cfg.ValBytes+1)
		for _, tc := range []struct {
			name string
			op   func() error
			want error
		}{
			{"put key -1", func() error { return svc.Put(-1, small) }, ErrKeyRange{Key: -1, Keys: keys}},
			{"put key Keys()", func() error { return svc.Put(keys, small) }, ErrKeyRange{Key: keys, Keys: keys}},
			{"put key Keys()+1", func() error { return svc.Put(keys+1, small) }, ErrKeyRange{Key: keys + 1, Keys: keys}},
			{"get key -1", func() error { _, err := svc.Get(-1, small); return err }, ErrKeyRange{Key: -1, Keys: keys}},
			{"get key Keys()", func() error { _, err := svc.Get(keys, small); return err }, ErrKeyRange{Key: keys, Keys: keys}},
			{"put oversized value", func() error { return svc.Put(0, big) }, ErrValueSize{Bytes: cfg.ValBytes + 1, Max: cfg.ValBytes}},
			{"put bad key and value", func() error { return svc.Put(keys, big) }, ErrKeyRange{Key: keys, Keys: keys}},
			{"put last key", func() error { return svc.Put(keys-4+int64(c.Rank()), small) }, nil},
		} {
			if err := tc.op(); !errors.Is(err, tc.want) && err != tc.want {
				t.Errorf("rank %d, %s: err = %v, want %v", c.Rank(), tc.name, err, tc.want)
			}
		}
		if err := svc.Commit(); err != nil {
			t.Errorf("Commit: %v", err)
		}
		if n := svc.CommittedCount(); n != 1 {
			t.Errorf("rank %d: %d committed writes, want the 1 valid Put", c.Rank(), n)
		}
		if lost, err := svc.Verify(); lost != 0 || err != nil {
			t.Errorf("rank %d: Verify = %d lost, %v", c.Rank(), lost, err)
		}
	})
}

package sci

// The identity contract of exporting and importing into caller-owned
// storage: a slab is the loop of single exports it replaces — same ids, same
// checks in the same order, same behaviour under revocation — and the dense
// segment table answers for ids nobody exported as the map it replaced did.

import (
	"errors"
	"testing"
	"time"

	"scimpich/internal/fault"
	"scimpich/internal/sim"
)

// TestExportSlabIDs: batch export hands out the ids the one-by-one loop
// hands out, interleaved with Export and ExportBuffer, and every one of them
// imports as the segment that was exported under it.
func TestExportSlabIDs(t *testing.T) {
	_, batch := testCluster(2)
	_, single := testCluster(2)
	var got, want []*Segment
	slab3, slab2 := make([]Segment, 3), make([]Segment, 2)

	got = append(got, batch.Node(1).Export(100))
	batch.Node(1).ExportSlab(slab3, 200)
	got = append(got, &slab3[0], &slab3[1], &slab3[2], batch.Node(1).ExportBuffer(make([]byte, 300)))
	batch.Node(1).ExportSlab(slab2, 400)
	got = append(got, &slab2[0], &slab2[1], batch.Node(1).Export(500))
	batch.Node(1).ExportSlab(nil, 600) // an empty slab takes no id

	for _, size := range []int64{100, 200, 200, 200} {
		want = append(want, single.Node(1).Export(size))
	}
	want = append(want, single.Node(1).ExportBuffer(make([]byte, 300)))
	for _, size := range []int64{400, 400, 500} {
		want = append(want, single.Node(1).Export(size))
	}

	for i := range want {
		if got[i].ID() != want[i].ID() || got[i].ID() != i {
			t.Errorf("export %d: id %d from the batch, %d one by one, want %d", i, got[i].ID(), want[i].ID(), i)
		}
		if got[i].Size() != want[i].Size() || got[i].owner != batch.Node(1) {
			t.Errorf("export %d: size %d owner %d, want %d on node 1", i, got[i].Size(), got[i].owner.id, want[i].Size())
		}
		m, err := batch.Node(0).Import(1, i)
		if err != nil || m.Segment() != got[i] {
			t.Errorf("import of id %d: segment %p, err %v; want %p", i, m.Segment(), err, got[i])
		}
	}
	if next := batch.Node(1).Export(1).ID(); next != len(want) {
		t.Errorf("next id after the batch is %d, want %d", next, len(want))
	}
	if id := batch.Node(0).Export(1).ID(); id != 0 {
		t.Errorf("first id on node 0 is %d: ids are per node", id)
	}
}

// TestImportIntoMatchesImport: an import into caller storage runs the checks
// of Import in Import's order — unknown owner, a scheduled denial (consumed
// even when the owner is down), a dead owner, a missing segment — reports
// each as Import does, and leaves the caller's mapping alone when it fails.
func TestImportIntoMatchesImport(t *testing.T) {
	cluster := func() (*sim.Engine, *Interconnect) {
		e, ic := faultyCluster(3, fault.New(1).FailImports(1, 0, 1).FailImports(2, 0, 1))
		ic.Node(1).Export(4096)
		ic.Node(2).Export(4096)
		ic.FailNode(2)
		return e, ic
	}
	_, a := cluster() // takes ImportInto
	_, b := cluster() // takes Import
	for _, tc := range []struct {
		name       string
		owner, seg int
		kind       fault.Kind // 0: an untyped error
	}{
		{"unknown owner", 7, 0, 0},
		{"negative owner", -1, 0, 0},
		{"denied", 1, 0, fault.ImportDenied},
		{"denied, though the owner is down too", 2, 0, fault.ImportDenied},
		{"owner down", 2, 0, fault.NodeUnreachable},
		{"never exported", 1, 1, 0},
		{"negative id", 1, -1, 0},
	} {
		var m Mapping
		errInto := a.Node(0).ImportInto(&m, tc.owner, tc.seg)
		_, errImport := b.Node(0).Import(tc.owner, tc.seg)
		if errInto == nil || errImport == nil || errInto.Error() != errImport.Error() {
			t.Errorf("%s: ImportInto says %v, Import says %v", tc.name, errInto, errImport)
		}
		var fe *fault.Error
		if errors.As(errInto, &fe) != (tc.kind != 0) || (fe != nil && fe.Kind != tc.kind) {
			t.Errorf("%s: err = %v, want kind %v", tc.name, errInto, tc.kind)
		}
		if m != (Mapping{}) {
			t.Errorf("%s: the failed import wrote the caller's mapping: %+v", tc.name, m)
		}
	}
	if ia, ib := a.Plan().Injected.Imports, b.Plan().Injected.Imports; ia != 2 || ib != 2 {
		t.Errorf("%d and %d denials consumed, want 2 and 2", ia, ib)
	}
	var m Mapping
	if err := a.Node(0).ImportInto(&m, 1, 0); err != nil || m.Segment().ID() != 0 || !m.Remote() {
		t.Errorf("import after the denial was consumed: %+v, %v", m, err)
	}
}

// TestRevokeSegmentIDs: revoking an id that is not exported — revoked
// before, never handed out, negative, past the end, on any node — does
// nothing, from the API and from a fault plan; a revoked id stays
// unimportable and is not handed out again.
func TestRevokeSegmentIDs(t *testing.T) {
	plan := fault.New(1)
	for _, id := range []int{1, 1, 3, 99, -1} {
		plan.RevokeSegment(1, id, time.Microsecond)
	}
	plan.RevokeSegment(5, 0, time.Microsecond) // no such node
	e, ic := faultyCluster(2, plan)
	slab := make([]Segment, 3)
	ic.Node(1).ExportSlab(slab, 64)
	for _, id := range []int{3, 99, -1} {
		ic.RevokeSegment(1, id)
	}
	e.Run()
	ic.RevokeSegment(1, 1)
	for id, want := range []bool{true, false, true} {
		m, err := ic.Node(0).Import(1, id)
		if (err == nil) != want {
			t.Errorf("import of id %d: err %v, want success %v", id, err, want)
		}
		if want && (m.Segment() != &slab[id] || m.seg.revoked) {
			t.Errorf("id %d maps %p valid %v, want %p", id, m.Segment(), !m.seg.revoked, &slab[id])
		}
	}
	if _, err := ic.Node(0).Import(1, 1); err == nil || err.Error() != "sci: node 1 exports no segment 1" {
		t.Errorf("import of the revoked id: %v", err)
	}
	if id := ic.Node(1).Export(64).ID(); id != 3 {
		t.Errorf("next id after a revocation is %d, want 3: a revoked id is not reused", id)
	}
}

// TestRevokedSlabSegmentFailsOldMappings: a segment revoked out of a slab
// fails every later access through mappings taken before the revocation —
// one from Import, one in caller storage — while its slab neighbours go on.
func TestRevokedSlabSegmentFailsOldMappings(t *testing.T) {
	e, ic := faultyCluster(2, fault.New(1).RevokeSegment(1, 1, time.Millisecond))
	slab := make([]Segment, 3)
	ic.Node(1).ExportSlab(slab, 4096)
	views := make([]Mapping, 3)
	for i := range views {
		if err := ic.Node(0).ImportInto(&views[i], 1, i); err != nil {
			t.Fatal(err)
		}
	}
	old := ic.Node(0).MustImport(1, 1)
	src := fill(64)
	e.Go("writer", func(p *sim.Proc) {
		for i := range views {
			if err := views[i].WriteStream(p, 0, src, 0); err != nil {
				t.Fatalf("segment %d before the revocation: %v", i, err)
			}
		}
		p.Sleep(2 * time.Millisecond)
		for i := range views {
			err := views[i].WriteStream(p, 0, src, 0)
			var lost ErrSegmentLost
			switch {
			case i != 1 && (err != nil || views[i].seg.revoked):
				t.Errorf("segment %d, a neighbour of the revoked one: valid %v, err %v", i, !views[i].seg.revoked, err)
			case i == 1 && (!errors.As(err, &lost) || lost != ErrSegmentLost{Owner: 1, Seg: 1} || !views[i].seg.revoked):
				t.Errorf("revoked segment through the slab mapping: valid %v, err %v", !views[i].seg.revoked, err)
			}
		}
		var lost ErrSegmentLost
		if err := old.Read(p, 0, make([]byte, 8)); !errors.As(err, &lost) {
			t.Errorf("revoked segment through the earlier Import: %v", err)
		}
		if err := views[1].Sync(p); !errors.As(err, &lost) {
			t.Errorf("Sync on the revoked segment: %v", err)
		}
	})
	e.Run()
	if !slab[1].revoked || slab[0].revoked || slab[2].revoked {
		t.Errorf("revoked flags %v %v %v, want only the middle one", slab[0].revoked, slab[1].revoked, slab[2].revoked)
	}
}

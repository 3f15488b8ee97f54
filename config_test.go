package scimpich_test

import (
	"reflect"
	"slices"
	"testing"

	"scimpich/internal/mpi"
	"scimpich/internal/osc"
	"scimpich/internal/rmem"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
)

// TestConfigSurface pins the settable knobs of the runtime: the exported
// fields of every configuration struct a program fills in. A knob is added
// or removed here, by name, in the same change that adds or removes it —
// thresholds and calibration no workload varies are constants in their
// package, not fields.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		cfg  any
		want []string
	}{
		{mpi.Config{}, []string{
			"Nodes", "ProcsPerNode", "SCI", "Shm", "Protocol", "Tracer", "Metrics", "Flight",
		}},
		{mpi.ProtocolConfig{}, []string{
			"RendezvousChunk", "UseFF", "Path",
			"Coll", "CollSlot", "CollTimeout", "RendezvousTimeout",
		}},
		{sci.Config{}, []string{
			"Nodes", "LinkMHz", "WriteCombine", "PIOWriteLatency", "Fault", "Metrics", "Flight", "Mem",
		}},
		{shmem.Config{}, []string{"Mem", "BusBW"}},
		{mpi.TorusConfig{}, []string{
			"DX", "DY", "DZ", "Shards", "ChunkBytes", "SegmentLatency", "SampleEvery", "Registry",
		}},
		{osc.Config{}, []string{"GetDirectMax"}},
		{rmem.Config{}, []string{"ValBytes"}},
		{rmem.Workload{}, []string{"Rounds", "OpsPerRound", "ReadFrac", "ArrivalGap", "Seed"}},
	} {
		typ := reflect.TypeOf(tc.cfg)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v has the fields\n  %v\nwant\n  %v", typ, got, tc.want)
		}
	}
}

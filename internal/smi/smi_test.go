package smi

import (
	"bytes"
	"testing"

	"scimpich/internal/pack"
	"scimpich/internal/sci"
	"scimpich/internal/shmem"
	"scimpich/internal/sim"
)

const confSize = 1024

// TestMemConformance drives the same sequence over all ten Mem methods
// through every adapter and requires the same bytes everywhere: a transport
// whose adapter drifts from the others fails against the reference image.
func TestMemConformance(t *testing.T) {
	transports := []struct {
		name        string
		remote, dma bool
		mem         func(e *sim.Engine) Mem
	}{
		{"sci-remote", true, true, func(e *sim.Engine) Mem {
			ic := sci.New(e, sci.DefaultConfig(2))
			return FromSCI(ic.Node(0).MustImport(1, ic.Node(1).Export(confSize).ID()))
		}},
		{"sci-local", false, false, func(e *sim.Engine) Mem {
			ic := sci.New(e, sci.DefaultConfig(2))
			return FromSCI(ic.Node(0).MustImport(0, ic.Node(0).Export(confSize).ID()))
		}},
		{"shm", false, false, func(e *sim.Engine) Mem {
			return FromShm(shmem.NewBuses(e, nil, "n", 1, shmem.DefaultConfig())[0].Alloc(confSize))
		}},
	}

	src := make([]byte, 64)
	for i := range src {
		src[i] = byte(i*5 + 1)
	}
	// The reference image: what the sequence below must leave behind.
	want := make([]byte, confSize)
	copy(want[0:], src)      // WriteStream
	for i := 0; i < 4; i++ { // WritePut: 16-byte accesses 32 apart
		copy(want[128+32*i:], src[16*i:16*i+16])
	}
	copy(want[256:], src[:8]) // BlockWriter, two blocks
	copy(want[300:], src[8:24])
	copy(want[512:], src)        // DMAWrite (or its PIO fallback)
	copy(want[640:], src[32:48]) // DMAWriteSG (or its fallback)
	copy(want[656:], src[0:16])

	for _, tr := range transports {
		tr := tr
		t.Run(tr.name, func(t *testing.T) {
			e := sim.NewEngine()
			mem := tr.mem(e)
			if mem.Remote() != tr.remote {
				t.Fatalf("Remote() = %v, want %v", mem.Remote(), tr.remote)
			}
			e.Go("p", func(p *sim.Proc) {
				must := func(what string, err error) {
					if err != nil {
						t.Errorf("%s: %v", what, err)
					}
				}
				must("WriteStream", mem.WriteStream(p, 0, src, 0))
				must("WritePut", mem.WritePut(p, 128, src, 16, 32))
				bw := mem.BlockWriter(p, 64)
				bw.Write(256, src[:8])
				bw.Write(300, src[8:24])
				must("Flush", bw.Flush())

				req, ok := mem.DMAWrite(p, 512, src)
				if ok != tr.dma {
					t.Errorf("DMAWrite available = %v, want %v", ok, tr.dma)
				}
				if ok {
					must("DMAWrite", req.Wait(p))
				} else {
					must("DMAWrite fallback", mem.WriteStream(p, 512, src, 0))
				}
				descs := []pack.Descriptor{
					{SrcOff: 32, DstOff: 0, Len: 16, Count: 1},
					{SrcOff: 0, DstOff: 16, Len: 16, Count: 1},
				}
				req, ok = mem.DMAWriteSG(p, 640, src, descs)
				if ok != tr.dma {
					t.Errorf("DMAWriteSG available = %v, want %v", ok, tr.dma)
				}
				if ok {
					must("DMAWriteSG", req.Wait(p))
				} else {
					must("DMAWriteSG fallback", mem.WriteStream(p, 640, src[32:48], 0))
					must("DMAWriteSG fallback", mem.WriteStream(p, 656, src[0:16], 0))
				}

				must("Sync", mem.Sync(p))
				if !bytes.Equal(mem.Bytes(), want) {
					t.Error("region bytes differ from the reference image")
				}
				got := make([]byte, confSize)
				must("Read", mem.Read(p, 0, got))
				if !bytes.Equal(got, want) {
					t.Error("Read returned bytes that differ from the reference image")
				}
				view, err := mem.ReadView(p, 128, 64, 3*64)
				must("ReadView", err)
				if !bytes.Equal(view, want[128:192]) {
					t.Error("ReadView returned bytes that differ from the reference image")
				}
			})
			e.Run()
		})
	}
}

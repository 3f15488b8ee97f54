// Quickstart: the smallest complete program on the simulated SCI cluster,
// written against the public scimpich facade (no internal imports).
//
// It starts a 2-node cluster, sends a strided vector datatype from rank 0
// to rank 1 (exercising direct_pack_ff), does a one-sided put with fence
// synchronization, and prints the virtual-time costs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"scimpich"
)

func program(c *scimpich.Comm) {
	// A vector of 1024 blocks of 2 doubles every 4 doubles: half data,
	// half gaps — the shape of a boundary column in a 2-D domain.
	column := scimpich.Vector(1024, 2, 4, scimpich.Float64).Commit()

	switch c.Rank() {
	case 0:
		// Fill the strided source: value = block index.
		src := make([]byte, column.Extent())
		vals := make([]float64, 2048)
		for i := range vals {
			vals[i] = float64(i / 2)
		}
		copy(src, scimpich.Float64Bytes(vals)) // dense prefix; the type picks blocks
		t0 := c.Wtime()
		if err := c.Send(src, 1, column, 1, 0); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rank 0: sent %d strided bytes in %.1f µs\n",
			column.Size(), (c.Wtime()-t0)*1e6)
	case 1:
		dst := make([]byte, column.Extent())
		st, err := c.Recv(dst, 1, column, 0, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rank 1: received %d bytes from rank %d\n", st.Bytes, st.Source)
	}

	// One-sided: every rank exposes a window and rank 0 puts into 1.
	sys := scimpich.NewOSC(c)
	win := sys.CreateShared(c.AllocShared(4096), scimpich.DefaultOSCConfig())
	if err := win.Fence(); err != nil {
		log.Fatal(err)
	}
	if c.Rank() == 0 {
		payload := scimpich.Float64Bytes([]float64{3.14159})
		if err := win.Put(payload, 8, scimpich.Byte, 1, 0); err != nil {
			log.Fatal(err)
		}
	}
	if err := win.Fence(); err != nil {
		log.Fatal(err)
	}
	if c.Rank() == 1 {
		got := scimpich.BytesFloat64(win.LocalBytes()[:8])[0]
		fmt.Printf("rank 1: window[0] = %g after fence\n", got)
		if got != 3.14159 {
			log.Fatal("one-sided put did not arrive")
		}
	}
}

func main() {
	end := scimpich.Run(scimpich.DefaultConfig(2, 1), program)
	fmt.Printf("simulation finished at virtual time %v\n", end)
}

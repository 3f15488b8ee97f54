package osc_test

import (
	"fmt"
	"log"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
)

// Fence-synchronized one-sided access to a window in SCI shared memory.
func Example() {
	mpi.Run(mpi.DefaultConfig(2, 1), func(c *mpi.Comm) {
		sys := osc.NewSystem(c)
		win := sys.CreateShared(c.AllocShared(64), osc.DefaultConfig())
		if err := win.Fence(); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 0 {
			if err := win.Put(mpi.Float64Bytes([]float64{42}), 8, datatype.Byte, 1, 0); err != nil {
				log.Fatal(err)
			}
		}
		if err := win.Fence(); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 1 {
			fmt.Println("window holds:", mpi.BytesFloat64(win.LocalBytes()[:8])[0])
		}
	})
	// Output:
	// window holds: 42
}

// Passive-target locking: a fetch-and-increment without any action by the
// target.
func ExampleWin_Lock() {
	mpi.Run(mpi.DefaultConfig(2, 1), func(c *mpi.Comm) {
		sys := osc.NewSystem(c)
		win := sys.CreateShared(c.AllocShared(8), osc.DefaultConfig())
		if err := c.Barrier(); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 1 {
			if err := win.Lock(0); err != nil {
				log.Fatal(err)
			}
			buf := make([]byte, 8)
			if err := win.Get(buf, 8, datatype.Byte, 0, 0); err != nil {
				log.Fatal(err)
			}
			v := mpi.BytesFloat64(buf)[0]
			if err := win.Put(mpi.Float64Bytes([]float64{v + 1}), 8, datatype.Byte, 0, 0); err != nil {
				log.Fatal(err)
			}
			win.Unlock(0)
		}
		if err := c.Barrier(); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 0 {
			fmt.Println("counter:", mpi.BytesFloat64(win.LocalBytes())[0])
		}
	})
	// Output:
	// counter: 1
}

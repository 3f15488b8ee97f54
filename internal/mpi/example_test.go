package mpi_test

import (
	"fmt"
	"log"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

// A two-node cluster sending one strided vector from rank 0 to rank 1.
func Example() {
	ty := datatype.Vector(16, 2, 4, datatype.Float64).Commit()
	mpi.Run(mpi.DefaultConfig(2, 1), func(c *mpi.Comm) {
		buf := make([]byte, ty.Extent())
		switch c.Rank() {
		case 0:
			if err := c.Send(buf, 1, ty, 1, 0); err != nil {
				log.Fatal(err)
			}
		case 1:
			st, err := c.Recv(buf, 1, ty, 0, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("received %d bytes from rank %d\n", st.Bytes, st.Source)
		}
	})
	// Output:
	// received 256 bytes from rank 0
}

func ExampleComm_Allreduce() {
	mpi.Run(mpi.DefaultConfig(4, 1), func(c *mpi.Comm) {
		recv := make([]byte, 8)
		if err := c.Allreduce(mpi.Float64Bytes([]float64{float64(c.Rank())}), recv, 1, datatype.Float64, mpi.OpSum); err != nil {
			log.Fatal(err)
		}
		if c.Rank() == 0 {
			fmt.Println("sum of ranks:", mpi.BytesFloat64(recv)[0])
		}
	})
	// Output:
	// sum of ranks: 6
}

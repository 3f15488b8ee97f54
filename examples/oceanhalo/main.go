// Ocean-model halo exchange: the paper's motivating application (§3,
// figure 2 — "ocean models in which the decomposition of the simulation
// volume is done along the two horizontal dimensions").
//
// A global nx x ny x nz ocean grid of float64 cells is decomposed over a
// px x py process mesh. Each time step the processes exchange boundary
// planes with their four neighbours: north/south halos are contiguous rows,
// east/west halos are strided columns (one small block per row — the
// non-contiguous case the direct_pack_ff algorithm accelerates), and the
// vertical dimension makes the columns double-strided.
//
// The example runs the same exchange with the generic pack-and-send
// baseline and with direct_pack_ff and reports the virtual-time speedup,
// then verifies the halo contents cell by cell.
//
//	go run ./examples/oceanhalo
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"time"

	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
)

const (
	px, py = 2, 2 // process mesh (4 ranks on 2 dual nodes)
	nx, ny = 512, 512
	nz     = 16 // vertical layers
	steps  = 4
)

// cell value encodes (global x, global y, z): a verifiable fingerprint.
func cellValue(gx, gy, z int) float64 {
	return float64(gx)*1e6 + float64(gy)*1e3 + float64(z)
}

// field is one rank's subdomain, with one-cell halos in x and y.
// Layout: [x][y][z], z fastest.
type field struct {
	lx, ly int // interior cells per dimension
	data   []float64
}

func newField(lx, ly int) *field {
	return &field{lx: lx, ly: ly, data: make([]float64, (lx+2)*(ly+2)*nz)}
}

func (f *field) idx(x, y, z int) int { return (x*(f.ly+2)+y)*nz + z }

// bytes views the field as the runtime's untyped buffer.
func (f *field) bytes() []byte {
	b := make([]byte, len(f.data)*8)
	for i, v := range f.data {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func (f *field) load(b []byte) {
	for i := range f.data {
		f.data[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

func main() {
	ffTime := run(true)
	genTime := run(false)
	fmt.Printf("halo exchange, %d steps: direct_pack_ff %v, generic %v (speedup %.2fx)\n",
		steps, ffTime, genTime, float64(genTime)/float64(ffTime))
}

func run(useFF bool) time.Duration {
	cfg := mpi.DefaultConfig(2, 2) // 4 ranks on 2 dual-SMP nodes
	cfg.Protocol.UseFF = useFF
	var exchange time.Duration
	mpi.Run(cfg, func(c *mpi.Comm) {
		rank := c.Rank()
		cx, cy := rank%px, rank/px
		lx, ly := nx/px, ny/py
		f := newField(lx, ly)

		// Initialize the interior with global fingerprints.
		for x := 1; x <= lx; x++ {
			for y := 1; y <= ly; y++ {
				for z := 0; z < nz; z++ {
					f.data[f.idx(x, y, z)] = cellValue(cx*lx+x-1, cy*ly+y-1, z)
				}
			}
		}

		// Halo datatypes over the [x][y][z] layout (z fastest):
		// A west/east halo is one y-z plane: for fixed x, ly blocks of nz
		// doubles, contiguous — but the *target* of the exchange is a
		// strided set because x varies per element row on the north/south
		// side. North/south halos (fixed y) are lx blocks of nz doubles
		// strided by the row length: the double-strided case of figure 2.
		rowBytes := int64((ly + 2) * nz * 8)
		planeNS := datatype.Hvector(lx, nz, rowBytes, datatype.Float64).Commit()
		planeWE := datatype.Contiguous(ly*nz, datatype.Float64).Commit()

		buf := f.bytes()
		west, east := rank-1, rank+1
		if cx == 0 {
			west = -1
		}
		if cx == px-1 {
			east = -1
		}
		south, north := rank-px, rank+px
		if cy == 0 {
			south = -1
		}
		if cy == py-1 {
			north = -1
		}

		off := func(x, y, z int) int64 { return int64(f.idx(x, y, z)) * 8 }

		if err := c.Barrier(); err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
		start := c.WtimeDuration()
		for s := 0; s < steps; s++ {
			// East/west: contiguous y-z planes (x fixed). Both directions
			// of a phase share a tag: my east-send matches the neighbour's
			// west-receive.
			exchangePair(c, buf, planeWE, east, off(lx, 1, 0), off(lx+1, 1, 0), 10+s)
			exchangePair(c, buf, planeWE, west, off(1, 1, 0), off(0, 1, 0), 10+s)
			// North/south: strided x-z planes (y fixed): non-contiguous.
			exchangePair(c, buf, planeNS, north, off(1, ly, 0), off(1, ly+1, 0), 30+s)
			exchangePair(c, buf, planeNS, south, off(1, 1, 0), off(1, 0, 0), 30+s)
		}
		if err := c.Barrier(); err != nil {
			log.Fatalf("rank %d: %v", rank, err)
		}
		if rank == 0 {
			exchange = c.WtimeDuration() - start
		}

		// Verify the received halos against the global fingerprints.
		f.load(buf)
		check := func(x, y int, gx, gy int) {
			for z := 0; z < nz; z++ {
				want := cellValue(gx, gy, z)
				if got := f.data[f.idx(x, y, z)]; got != want {
					log.Fatalf("rank %d: halo (%d,%d,%d) = %v, want %v", rank, x, y, z, got, want)
				}
			}
		}
		if east >= 0 {
			for y := 1; y <= ly; y++ {
				check(lx+1, y, (cx+1)*lx, cy*ly+y-1)
			}
		}
		if north >= 0 {
			for x := 1; x <= lx; x++ {
				check(x, ly+1, cx*lx+x-1, (cy+1)*ly)
			}
		}
	})
	return exchange
}

// exchangePair swaps one halo plane with a neighbour (no-op for -1).
func exchangePair(c *mpi.Comm, buf []byte, dt *datatype.Type, peer int, sendOff, recvOff int64, tag int) {
	if peer < 0 {
		return
	}
	if _, err := c.Sendrecv(buf[sendOff:], 1, dt, peer, tag, buf[recvOff:], 1, dt, peer, tag); err != nil {
		log.Fatalf("rank %d: halo exchange with %d: %v", c.Rank(), peer, err)
	}
}

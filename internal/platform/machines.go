package platform

import (
	"time"
)

// The comparator machines (paper Table 1 and §5.3), with curves calibrated
// to the published observations. Absolute numbers are representative of the
// era's hardware; the reproduced quantities are the relations the paper
// reports (efficiency plateaus, crossovers, scaling knees).

// CrayT3E models the T3E-1200 with Cray MPI.
//
// Figure 10: "reaches an efficiency of about 1 for blocksizes between 8 and
// 32 kiB, but has a very low efficiency for very small (< 4 kiB) and big
// (> 32 kiB) blocksizes". Figure 11/12: good one-sided performance, "uneven,
// but regular bandwidth characteristics constant for up to 32 processes".
func CrayT3E() *Platform {
	return &Platform{
		ID: "C", Machine: "Cray T3E-1200", Interconnect: "custom", MPI: "Cray",
		OneSided: true, MaxProcs: 32,
		Latency: 14 * time.Microsecond, Bandwidth: 330 * MiB,
		MemBW: 600 * MiB, BlockCost: 150 * time.Nanosecond,
		ncEfficiency: func(bs int64) float64 {
			switch {
			case bs < 512:
				return 0.06 + float64(0.10*float64(bs)/512)
			case bs < 4096:
				return 0.16 + float64(0.24*float64(bs-512)/3584)
			case bs < 8192:
				return 0.40 + float64(0.55*float64(bs-4096)/4096)
			case bs <= 32768:
				return 0.98
			default:
				return 0.30
			}
		},
		OSAccessCost: 2 * time.Microsecond, OSPeakBW: 310 * MiB,
		osModulate: unevenButRegular,
		scaling: func(p int, accessSize int64) float64 {
			_, bw := (&Platform{OneSided: true, OSAccessCost: 2 * time.Microsecond,
				OSPeakBW: 310 * MiB, osModulate: unevenButRegular}).Sparse(accessSize)
			return bw // constant per process up to 32
		},
	}
}

// unevenButRegular reproduces the T3E's sawtooth bandwidth curve: E-register
// transfers favour particular access granularities.
func unevenButRegular(accessSize int64, bw float64) float64 {
	if log2(accessSize)%2 == 0 {
		return bw * 1.15
	}
	return bw * 0.75
}

func log2(v int64) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// SunFireShm models the Sun Fire 6800 (24-way SMP, 750 MHz) with Sun HPC
// 3.1 over shared memory.
//
// Figure 10: "a very constant efficiency, which jumps from 0.5 to 1 for
// blocksizes of 16k and above". Figure 11: "very good performance for
// shared memory". Figure 12: "scale better, but even its bandwidth declines
// notably for more than 6 active processes".
func SunFireShm() *Platform {
	return &Platform{
		ID: "F-s", Machine: "Sun Fire 6800", Interconnect: "shared memory", MPI: "Sun HPC 3.1",
		OneSided: true, MaxProcs: 24,
		Latency: 3 * time.Microsecond, Bandwidth: 580 * MiB,
		MemBW: 900 * MiB, BlockCost: 90 * time.Nanosecond,
		ncEfficiency: func(bs int64) float64 {
			if bs >= 16<<10 {
				return 1.0
			}
			return 0.5
		},
		OSAccessCost: 900 * time.Nanosecond, OSPeakBW: 520 * MiB,
		scaling: func(p int, accessSize int64) float64 {
			base := 520.0 * MiB * float64(accessSize) /
				(float64(accessSize) + 900e-9*520*MiB)
			if p <= 6 {
				return base
			}
			// Backplane contention beyond 6 active processors.
			return base / (1 + float64(0.18*float64(p-6)))
		},
	}
}

// SunFireGigabit models the same machine over Gigabit Ethernet (Sun MPI
// does not support one-sided communication there; Myrinet was "installed,
// but not yet available").
func SunFireGigabit() *Platform {
	return &Platform{
		ID: "F-G", Machine: "Sun Fire 6800", Interconnect: "Gigabit Ethernet", MPI: "Sun HPC 3.1",
		OneSided: false, MaxProcs: 24,
		Latency: 55 * time.Microsecond, Bandwidth: 46 * MiB,
		MemBW: 900 * MiB, BlockCost: 90 * time.Nanosecond,
	}
}

// LAMFastEthernet models the Pentium III Xeon quad-SMP cluster with LAM
// 6.5.4 over fast ethernet.
//
// Figure 11: "it has very high latencies and gives a maximum of 10 MiB
// bandwidth via fast ethernet".
func LAMFastEthernet() *Platform {
	return &Platform{
		ID: "X-f", Machine: "Pentium III Xeon quad SMP", Interconnect: "fast ethernet", MPI: "LAM 6.5.4",
		OneSided: true, MaxProcs: 8,
		Latency: 75 * time.Microsecond, Bandwidth: 10.5 * MiB,
		MemBW: 350 * MiB, BlockCost: 100 * time.Nanosecond,
		OSAccessCost: 160 * time.Microsecond, OSPeakBW: 10 * MiB,
	}
}

// LAMShm models LAM over shared memory on the quad Xeon (550 MHz).
//
// Figure 11: "the performance of the shared memory implementation is a
// little bit lower than SCI-MPICH via SCI"; only MPI_Get — MPI_Put
// deadlocked. Figure 12: "platforms with an inferior memory system design
// like the 4-way Xeon SMP scale very badly for coarse-grained accesses and
// deliver a bandwidth below the SCI-connected system".
func LAMShm() *Platform {
	return &Platform{
		ID: "X-s", Machine: "Pentium III Xeon quad SMP", Interconnect: "shared memory", MPI: "LAM 6.5.4",
		OneSided: true, GetOnly: true, MaxProcs: 4,
		Latency: 6 * time.Microsecond, Bandwidth: 170 * MiB,
		MemBW: 350 * MiB, BlockCost: 100 * time.Nanosecond,
		OSAccessCost: 2500 * time.Nanosecond, OSPeakBW: 105 * MiB,
		scaling: func(p int, accessSize int64) float64 {
			per := 2500e-9 + float64(accessSize)/(105*MiB)
			base := float64(accessSize) / per
			if accessSize >= 4096 {
				// Coarse-grained accesses saturate the shared bus almost
				// immediately.
				return base / (1 + float64(0.85*float64(p-1)))
			}
			if p <= 2 {
				return base
			}
			return base / (1 + float64(0.35*float64(p-2)))
		},
	}
}

// SCoreMyrinet models the Pentium II dual-SMP cluster with SCore 2.4.1 over
// Myrinet 1280 (no one-sided support).
func SCoreMyrinet() *Platform {
	return &Platform{
		ID: "S-M", Machine: "Pentium II dual SMP", Interconnect: "Myrinet 1280", MPI: "SCore 2.4.1",
		OneSided: false, MaxProcs: 16,
		Latency: 16 * time.Microsecond, Bandwidth: 105 * MiB,
		MemBW: 220 * MiB, BlockCost: 120 * time.Nanosecond,
	}
}

// SCoreShm models SCore over shared memory on the dual Pentium II 400.
func SCoreShm() *Platform {
	return &Platform{
		ID: "S-s", Machine: "Pentium II dual SMP", Interconnect: "shared memory", MPI: "SCore 2.4.1",
		OneSided: false, MaxProcs: 2,
		Latency: 4 * time.Microsecond, Bandwidth: 130 * MiB,
		MemBW: 220 * MiB, BlockCost: 120 * time.Nanosecond,
	}
}

// GiganetVIA models the one-sided implementation of [15] (Golebiewski &
// Träff) on a Giganet SMP cluster, the reference point of §5.3: "for 1024
// bytes, it's about a factor 3 (compared with one-sided communication via
// messages on SCI) up to a factor of 15 (compared with direct SCI put)
// slower than using the presented solution via SCI".
func GiganetVIA() *Platform {
	return &Platform{
		ID: "VIA", Machine: "Giganet SMP cluster", Interconnect: "VIA", MPI: "NEC MPI-2 port",
		OneSided: true, MaxProcs: 8,
		Latency: 30 * time.Microsecond, Bandwidth: 85 * MiB,
		MemBW: 350 * MiB, BlockCost: 100 * time.Nanosecond,
		OSAccessCost: 85 * time.Microsecond, OSPeakBW: 70 * MiB,
	}
}

// All returns the comparator set in Table 1 order (plus the VIA reference).
// The SCI-MPICH rows (M-S, M-s) run on the real simulated stack and are
// added by the benchmark harness.
func All() []*Platform {
	return []*Platform{
		CrayT3E(),
		SunFireGigabit(),
		SunFireShm(),
		LAMFastEthernet(),
		LAMShm(),
		SCoreMyrinet(),
		SCoreShm(),
		GiganetVIA(),
	}
}

// Package scimpich is a Go reproduction of "Exploiting Transparent Remote
// Memory Access for Non-Contiguous- and One-Sided-Communication"
// (Worringen, Gäer, Reker — IPPS 2002): the SCI-MPICH message-passing
// runtime with the direct_pack_ff datatype engine and MPI-2 one-sided
// communication, running on a deterministic discrete-event simulation of an
// SCI-connected cluster.
//
// This package is the public facade; it re-exports the user-facing API of
// the internal packages:
//
//   - cluster construction and the MPI subset (Run, Comm, datatypes,
//     collectives) from internal/mpi and internal/datatype,
//   - one-sided communication (windows, Put/Get/Accumulate, fence / PSCW /
//     lock-unlock) from internal/osc,
//   - the experiment drivers that regenerate every table and figure of the
//     paper from internal/bench.
//
// Quick start:
//
//	cfg := scimpich.DefaultConfig(2, 1) // 2 nodes, 1 process each
//	scimpich.Run(cfg, func(c *scimpich.Comm) {
//		ty := scimpich.Vector(1024, 2, 4, scimpich.Float64).Commit()
//		if c.Rank() == 0 {
//			if err := c.Send(buf, 1, ty, 1, 0); err != nil {
//				log.Fatal(err) // every call returns its faults
//			}
//		} else if _, err := c.Recv(buf, 1, ty, 0, 0); err != nil {
//			log.Fatal(err)
//		}
//	})
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory and the per-experiment index.
package scimpich

import (
	"scimpich/internal/datatype"
	"scimpich/internal/mpi"
	"scimpich/internal/osc"
	"scimpich/internal/sim"
)

// Cluster configuration and runtime.
type (
	// Config describes a simulated cluster (nodes, SMP width, interconnect
	// and protocol parameters). A cluster runs on the sequential engine.
	Config = mpi.Config
	// Comm is a rank's communicator handle.
	Comm = mpi.Comm
	// World is a wired cluster (NewWorldOn); most programs use Run and
	// never touch it.
	World = mpi.World
	// Fabric is the simulation substrate a world runs on: a set of
	// locales advancing one virtual clock (internal/sim.Fabric).
	Fabric = sim.Fabric
	// TorusConfig parameterizes the §6-scale 3-D torus collective machine
	// (TorusWorld): a dx*dy*dz node grid running the chunked ring
	// allreduce, shardable by z-planes.
	TorusConfig = mpi.TorusConfig
	// TorusResult summarizes a completed torus run.
	TorusResult = mpi.TorusResult
	// TorusWorld is the torus collective machine.
	TorusWorld = mpi.TorusWorld
	// Status describes a completed receive.
	Status = mpi.Status
	// Request is a nonblocking operation handle.
	Request = mpi.Request
	// Op is a reduction operation.
	Op = mpi.Op
	// SharedSeg is remotely accessible memory (MPI_Alloc_mem).
	SharedSeg = mpi.SharedSeg
	// ProtocolConfig tunes the messaging protocols and the collective
	// engine (point-to-point thresholds, path policy, collective
	// algorithm choice and window sizing).
	ProtocolConfig = mpi.ProtocolConfig
	// PathPolicy selects the transfer engine of large point-to-point
	// messages.
	PathPolicy = mpi.PathPolicy
	// CollAlg selects (or forces) a collective algorithm family.
	CollAlg = mpi.CollAlg
)

// Typed errors the MPI calls return (Send, Bcast, Allreduce, ...).
type (
	// ArgumentError reports an invalid argument to an MPI call.
	ArgumentError = mpi.ArgumentError
	// ProtocolError reports a messaging-protocol violation.
	ProtocolError = mpi.ProtocolError
	// CancelledError reports a request cancelled by fault handling.
	CancelledError = mpi.CancelledError
)

// Transfer-path policies (ProtocolConfig.Path).
const (
	PathAdaptive = mpi.PathAdaptive
	PathStatic   = mpi.PathStatic
	PathPIO      = mpi.PathPIO
	PathStaged   = mpi.PathStaged
	PathDMA      = mpi.PathDMA
)

// Collective algorithm families (ProtocolConfig.Coll).
const (
	CollAuto     = mpi.CollAuto
	CollP2P      = mpi.CollP2P
	CollRecDbl   = mpi.CollRecDbl
	CollRing     = mpi.CollRing
	CollOneSided = mpi.CollOneSided
)

// Datatypes.
type (
	// Type is an MPI datatype.
	Type = datatype.Type
	// Field is one member of a struct datatype.
	Field = datatype.Field
)

// One-sided communication.
type (
	// Win is an MPI-2 window.
	Win = osc.Win
	// OSCSystem is a rank's one-sided engine.
	OSCSystem = osc.System
	// OSCConfig tunes one-sided transfer policy.
	OSCConfig = osc.Config
)

// Receive wildcards.
const (
	AnySource = mpi.AnySource
	AnyTag    = mpi.AnyTag
)

// Reduction operations.
const (
	OpSum  = mpi.OpSum
	OpProd = mpi.OpProd
	OpMax  = mpi.OpMax
	OpMin  = mpi.OpMin
)

// Predefined basic datatypes.
var (
	Byte    = datatype.Byte
	Char    = datatype.Char
	Int16   = datatype.Int16
	Int32   = datatype.Int32
	Int64   = datatype.Int64
	Float32 = datatype.Float32
	Float64 = datatype.Float64
	Double  = datatype.Double
)

// Run builds a simulated cluster and executes main once per rank, returning
// the final virtual time.
var Run = mpi.Run

// Fabric-first construction: NewFabric builds the engine Run would use for
// a Config, RunOn runs a cluster on an existing fabric, and NewWorldOn
// wires a cluster onto a fabric locale without running it — for harnesses
// that mix in extra simulation components. NewLocalFabric wraps a fresh
// sequential engine as an n-locale fabric.
var (
	NewFabric      = mpi.NewFabric
	RunOn          = mpi.RunOn
	NewWorldOn     = mpi.NewWorldOn
	NewLocalFabric = sim.NewLocalFabric
)

// The §6-scale torus collective machine, shardable by z-planes: the
// sharded fabric, the sequential oracle fabric, and the world constructor
// that runs on either.
var (
	DefaultTorusConfig = mpi.DefaultTorusConfig
	NewTorusFabric     = mpi.NewTorusFabric
	NewTorusOracle     = mpi.NewTorusOracle
	NewTorusWorldOn    = mpi.NewTorusWorldOn
)

// DefaultConfig returns a cluster configuration matching the paper's
// testbed (dual Pentium-III nodes on a 166 MHz SCI ringlet).
var DefaultConfig = mpi.DefaultConfig

// DefaultProtocol returns the SCI-MPICH-like protocol parameters
// (thresholds, path policy, collective engine defaults).
var DefaultProtocol = mpi.DefaultProtocol

// Datatype constructors (MPI_Type_*).
var (
	Contiguous = datatype.Contiguous
	Vector     = datatype.Vector
	Hvector    = datatype.Hvector
	Indexed    = datatype.Indexed
	Hindexed   = datatype.Hindexed
	StructOf   = datatype.StructOf
	Resized    = datatype.Resized
)

// NewOSC installs the one-sided communication engine on a rank.
var NewOSC = osc.NewSystem

// DefaultOSCConfig returns the calibrated one-sided transfer policy.
var DefaultOSCConfig = osc.DefaultConfig

// Typed buffer helpers.
var (
	Float64Bytes = mpi.Float64Bytes
	BytesFloat64 = mpi.BytesFloat64
	Int32Bytes   = mpi.Int32Bytes
	BytesInt32   = mpi.BytesInt32
)

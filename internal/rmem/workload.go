package rmem

import (
	"math/rand"
	"time"

	"scimpich/internal/mpi"
	"scimpich/internal/obs"
)

// The simulated client workload: every rank runs an open-loop stream of
// gets and puts against the replicated store (Zipfian keys — a few hot
// pages, a long cold tail), batched into commit rounds. Arrivals are
// scheduled on a fixed grid, so the sojourn histogram (completion minus
// scheduled arrival) exposes queueing delay during a failover, while the
// service-time histograms isolate the per-operation cost.

// Workload shapes the client load.
type Workload struct {
	// Rounds is the number of commit rounds; OpsPerRound the client
	// operations issued between commits.
	Rounds, OpsPerRound int
	// ReadFrac is the fraction of operations that are gets.
	ReadFrac float64
	// ArrivalGap is the open-loop inter-arrival time of the client stream.
	ArrivalGap time.Duration
	// Seed derives every rank's private random stream.
	Seed int64
}

// zipfS and zipfV parameterize the key popularity skew (s > 1, v >= 1).
const zipfS, zipfV = 1.2, 1

// DefaultWorkload returns the reference client load.
func DefaultWorkload() Workload {
	return Workload{
		Rounds: 16, OpsPerRound: 25,
		ReadFrac:   0.7,
		ArrivalGap: 40 * time.Microsecond,
		Seed:       42,
	}
}

// RankReport is one rank's outcome of a workload run.
type RankReport struct {
	Rank int
	// Died marks a rank revoked by a shrink agreement (its node crashed).
	Died bool
	// RecoverErr records a survivor whose recovery failed (must be empty).
	RecoverErr string
	Failovers  int
	LostShards int
	Survivors  []int // world ranks of the final membership

	Committed           int
	GetOK, PutOK        int64
	OpFailures          int64
	FailedAfterRecovery int64
	// LostWrites is the number of committed ledger entries the final store
	// no longer served at verification (the durability gate; must be 0).
	LostWrites int64
	VerifyErr  string

	// Service-time distributions of successful operations, and the sojourn
	// (completion minus scheduled arrival) including retries and recovery.
	GetNS, PutNS, SojournNS obs.HistSnapshot
}

// RunWorkload executes the workload on every rank of a fresh world and
// returns the per-world-rank reports plus the simulated end time. The
// fault plan (if any) rides in mcfg.SCI.Fault; crashes are recovered
// through the service's failover path.
func RunWorkload(mcfg mpi.Config, cfg Config, wl Workload) ([]RankReport, time.Duration) {
	reports := make([]RankReport, mcfg.Nodes*mcfg.ProcsPerNode)
	end := mpi.Run(mcfg, func(c *mpi.Comm) {
		me := c.WorldRank()
		reports[me] = runClient(c, cfg, wl)
	})
	return reports, end
}

// recoverOrDie drives the failover path after a failed operation. It
// returns false when this rank must stop (revoked, or every recovery
// attempt failed), with the report fields filled in: a failed attempt that
// a later one mends leaves no error.
func recoverOrDie(svc *Service, rep *RankReport) bool {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = svc.Recover(); err == nil {
			return true
		}
		if IsRevoked(err) {
			rep.Died = true
			return false
		}
	}
	rep.RecoverErr = err.Error()
	return false
}

func runClient(c *mpi.Comm, cfg Config, wl Workload) RankReport {
	rep := RankReport{Rank: c.WorldRank()}
	p := c.Proc()
	svc, err := New(c, cfg)
	if err != nil {
		rep.RecoverErr = err.Error()
		return rep
	}
	finish := func() RankReport {
		rep.Failovers = svc.Failovers
		rep.LostShards = svc.LostShards
		rep.Committed = svc.CommittedCount()
		if !rep.Died && rep.RecoverErr == "" {
			rep.Survivors = append([]int(nil), svc.ranks...)
		}
		return rep
	}

	me := c.WorldRank()
	ws0 := c.Size() // original world size: the key-partition modulus
	keys := cfg.Keys()
	rng := rand.New(rand.NewSource(wl.Seed*1009 + int64(me)))
	zipf := rand.NewZipf(rng, zipfS, zipfV, uint64(keys-1))
	getNS, putNS, sojournNS := new(obs.Histogram), new(obs.Histogram), new(obs.Histogram)
	val := make([]byte, cfg.ValBytes)
	recovered := false

	arrival := p.Now()
	for round := 0; round < wl.Rounds; round++ {
		// Fence alignment across a failover: Recover itself commits (it
		// must, to seal the replayed writes), so a rank that recovered
		// mid-round skips its own round-boundary commit. All survivors
		// recover within the same round — they all rendezvous inside the
		// shrink agreement — so they all skip the same boundary and the
		// collective fence counts stay matched.
		recoveredThisRound := false
		for op := 0; op < wl.OpsPerRound; op++ {
			arrival += wl.ArrivalGap
			if now := p.Now(); now < arrival {
				p.Sleep(arrival - now)
			}
			read := rng.Float64() < wl.ReadFrac
			key := int64(zipf.Uint64())
			if !read {
				// Writes are partitioned by origin: each rank owns the keys
				// congruent to its world rank, so no two writers race on a
				// slot (and a crashed node's stale stores cannot touch
				// survivor data).
				key = key - key%int64(ws0) + int64(me)
				if key >= keys {
					key -= int64(ws0)
				}
				for i := range val {
					val[i] = byte(key) ^ byte(i)
				}
			}
			for {
				opStart := p.Now()
				var oerr error
				if read {
					_, oerr = svc.Get(key, val)
				} else {
					oerr = svc.Put(key, val)
				}
				if oerr == nil {
					if read {
						rep.GetOK++
						getNS.ObserveDuration(p.Now() - opStart)
					} else {
						rep.PutOK++
						putNS.ObserveDuration(p.Now() - opStart)
					}
					sojournNS.ObserveDuration(p.Now() - arrival)
					break
				}
				rep.OpFailures++
				if recovered {
					rep.FailedAfterRecovery++
				}
				if !recoverOrDie(svc, &rep) {
					return finish()
				}
				recovered = true
				recoveredThisRound = true
			}
		}
		if recoveredThisRound {
			continue
		}
		if err := svc.Commit(); err != nil {
			rep.OpFailures++
			if recovered {
				rep.FailedAfterRecovery++
			}
			// Recover replays the staged writes of the failed round and
			// commits them itself, standing in for this round's commit.
			if !recoverOrDie(svc, &rep) {
				return finish()
			}
			recovered = true
		}
	}
	// Final flush: every rank commits once more so writes staged after a
	// skipped boundary are sealed before verification.
	if err := svc.Commit(); err != nil {
		if recovered {
			rep.FailedAfterRecovery++
		}
		if !recoverOrDie(svc, &rep) {
			return finish()
		}
	}

	lost, verr := svc.Verify()
	rep.LostWrites = lost
	if verr != nil {
		rep.VerifyErr = verr.Error()
	}
	rep.GetNS = getNS.Snapshot()
	rep.PutNS = putNS.Snapshot()
	rep.SojournNS = sojournNS.Snapshot()
	return finish()
}

package main

import (
	"fmt"
	"time"

	"scimpich"
	"scimpich/internal/fault"
	"scimpich/internal/obs"
	"scimpich/internal/rmem"
)

const (
	rmemNodes     = 4
	rmemCrashNode = 1
	rmemCrashAt   = 5200 * time.Microsecond
	rmemJitter    = 150 * time.Microsecond // crash instant is rmemCrashAt +- this, from the seed
)

// rmemSide accumulates the reports of all crash-free or all crash runs.
type rmemSide struct {
	ok, retried          int64
	lost, afterRecovery  int64
	failovers, diedRanks int64
	runs, runsNoFailover int64
	virt                 int64
	get, put, sojourn    obs.HistSnapshot
	lateNS, lateN        int64
	unexpected           []string
}

func merge(dst *obs.HistSnapshot, src obs.HistSnapshot) {
	if src.Count == 0 {
		return
	}
	if dst.Count == 0 || src.Min < dst.Min {
		dst.Min = src.Min
	}
	dst.Max = max(dst.Max, src.Max)
	dst.Count += src.Count
	dst.Sum += src.Sum
	for i, n := range src.Buckets {
		dst.Buckets[i] += n
	}
}

func (s *rmemSide) add(reports []rmem.RankReport, end time.Duration, crashed bool) {
	s.runs++
	s.virt += int64(end)
	var failovers int
	for _, r := range reports {
		if r.Died {
			// The client on the crashed node dies with its node; its
			// operation in flight is aborted by the injected crash, not
			// failed by the service.
			s.diedRanks++
			continue
		}
		s.ok += r.GetOK + r.PutOK
		s.retried += r.OpFailures
		s.lost += r.LostWrites + int64(r.LostShards)
		s.afterRecovery += r.FailedAfterRecovery
		failovers += r.Failovers
		if r.RecoverErr != "" {
			s.unexpected = append(s.unexpected, r.RecoverErr)
		}
		if r.VerifyErr != "" {
			s.unexpected = append(s.unexpected, r.VerifyErr)
		}
		merge(&s.get, r.GetNS)
		merge(&s.put, r.PutNS)
		merge(&s.sojourn, r.SojournNS)
		// How late the open-loop generator ran: sojourn minus service
		// time is the wait between an operation's due time and its issue.
		s.lateNS += r.SojournNS.Sum - r.GetNS.Sum - r.PutNS.Sum
		s.lateN += r.SojournNS.Count
	}
	s.failovers += int64(failovers)
	if crashed && failovers == 0 {
		s.runsNoFailover++
	}
}

// runRmemFailover: 4 nodes, the default rmem client load (open loop in
// virtual time: one operation due every 40 us per client), as seeded pairs
// of a crash-free run and a run in which node 1 crashes mid-way. One
// operation is one client get or put; its latency is the sojourn time,
// measured from the instant it was due.
func runRmemFailover(e *env) {
	pairs := e.n(160)
	rng := newStream(e.seed, 6)
	type pairInput struct {
		seed    uint64
		crashAt time.Duration
	}
	inputs := make([]pairInput, pairs+warm(pairs))
	for i := range inputs {
		jitter := time.Duration(rng.next()%uint64(2*rmemJitter+1)) - rmemJitter
		inputs[i] = pairInput{seed: rng.next() >> 1, crashAt: rmemCrashAt + jitter}
	}

	run := func(in pairInput, crash, measured bool) ([]rmem.RankReport, time.Duration) {
		plan := fault.New(in.seed)
		if crash {
			plan.CrashNode(rmemCrashNode, in.crashAt)
		}
		cfg := scimpich.DefaultConfig(rmemNodes, 1)
		cfg.SCI.Fault = plan
		cfg.Protocol.CollTimeout = -1       // mpi.AutoTimeout: watchdogs scaled from link latencies
		cfg.Protocol.RendezvousTimeout = -1 // likewise
		wl := rmem.DefaultWorkload()
		wl.Seed = int64(in.seed)
		kind := spRmemBase
		if crash {
			kind = spRmemChurn
		}
		tr0 := e.tracerFor(measured)
		tr0.attach(&cfg)
		s := tr0.host(kind, 0)
		reports, end := rmem.RunWorkload(cfg, rmem.DefaultConfig(), wl)
		tr0.doneHost(s, end)
		if e.corrupt {
			// The reports carry no bytes to damage (rmem.Verify reads the
			// store back itself); damage its verdict instead.
			reports[0].LostWrites++
		}
		return reports, end
	}

	for _, in := range inputs[pairs:] {
		run(in, false, false)
		run(in, true, false)
	}
	var base, churn rmemSide
	e.begin()
	for _, in := range inputs[:pairs] {
		reports, end := run(in, false, true)
		base.add(reports, end, false)
		reports, end = run(in, true, true)
		churn.add(reports, end, true)
	}
	attempted := base.ok + churn.ok
	e.end(attempted)

	unexpected := int64(len(base.unexpected) + len(churn.unexpected))
	e.res.Failed = base.lost + churn.lost + base.afterRecovery + churn.afterRecovery + base.retried + unexpected

	var all obs.HistSnapshot
	merge(&all, base.sojourn)
	merge(&all, churn.sojourn)
	pct := tailPercentile(int(all.Count))
	// The median, not the mean: the mean sojourn time is the backlog of the
	// crash runs and swings by a third with the seed's crash instants.
	e.res.VirtLatencyUS = float64(all.Quantile(0.5)) / 1e3
	e.res.VirtTailUS = float64(all.Quantile(pct/100)) / 1e3
	e.res.VirtTailPct = pct
	e.res.VirtTailSamples = int(all.Count)
	// Throughput of the healthy service; what a crash costs is the tail.
	e.res.VirtBandwidthMiBs = mibs(base.ok*rmem.DefaultConfig().ValBytes, base.virt)

	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	rows := e.res.Rows
	rows["rmem_get_virt_p50_us"] = us(churn.get.Quantile(0.5))
	rows["rmem_get_virt_p99_us"] = us(churn.get.Quantile(0.99))
	rows["rmem_get_virt_p99_us_base"] = us(base.get.Quantile(0.99))
	rows["rmem_put_virt_p99_us"] = us(churn.put.Quantile(0.99))
	rows["rmem_sojourn_virt_p99_us_base"] = us(base.sojourn.Quantile(0.99))
	rows["rmem_sojourn_virt_p99_us_churn"] = us(churn.sojourn.Quantile(0.99))
	rows["rmem_failovers"] = float64(churn.failovers)
	rows["rmem_lost_writes"] = float64(base.lost + churn.lost)
	rows["rmem_failed_after_recovery"] = float64(churn.afterRecovery)
	rows["rmem_op_retries"] = float64(churn.retried)
	rows["rmem_clients_died_with_node"] = float64(churn.diedRanks)
	rows["rmem_late_virt_us_base"] = us(base.lateNS) / float64(base.lateN)
	rows["rmem_late_virt_us_churn"] = us(churn.lateNS) / float64(churn.lateN)

	e.claim("no lost write", base.lost+churn.lost == 0 && unexpected == 0,
		fmt.Sprintf("%d lost, %d unexpected errors %v", base.lost+churn.lost, unexpected, append(base.unexpected, churn.unexpected...)))
	e.claim("no failure after the recovery epoch", churn.afterRecovery == 0,
		fmt.Sprintf("%d operations failed after recovery", churn.afterRecovery))
	e.claim(">= 1 failover per crash run", churn.runsNoFailover == 0,
		fmt.Sprintf("%d of %d crash runs without a failover", churn.runsNoFailover, churn.runs))
}

package main

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/tm"
)

// layerSnap is a reading of the program's public counters at one instant.
// Subtracting two readings gives a window's counts. Execution outcomes
// come from the obs collector's exact counters; the granules' own
// statistics are sampled counters.
type layerSnap struct {
	granules int
	commits  uint64
	obs      obs.Snapshot
	outer    policyTotals
	inner    policyTotals
}

// readLayers reads the number of granules, the domain's shard clocks, the
// obs collector and the timed policies.
func readLayers(rt *core.Runtime, coll *obs.Collector, ps *policySet) layerSnap {
	var s layerSnap
	for _, l := range rt.Locks() {
		s.granules += len(l.Granules())
	}
	dom := rt.Domain()
	for i := 0; i < dom.NumShards(); i++ {
		s.commits += dom.ShardClock(i)
	}
	s.obs = coll.Snapshot()
	s.outer, s.inner = ps.totals()
	return s
}

// layerAgg sums the window deltas of every traced episode of a run.
type layerAgg struct {
	granules int
	commits  uint64
	counts   [obs.NumCounters]uint64
	lat      [obs.NumHists]struct{ n, sumNS uint64 }
	outer    policyTotals
	inner    policyTotals
}

// add accumulates the window end−start.
func (a *layerAgg) add(start, end layerSnap) {
	a.granules = end.granules
	a.commits += end.commits - start.commits
	d := end.obs.Sub(start.obs)
	for c := range a.counts {
		a.counts[c] += d.Counts[c]
	}
	for h := range a.lat {
		a.lat[h].n += d.Lat[h].Count()
		a.lat[h].sumNS += d.Lat[h].SumNS
	}
	a.outer.add(end.outer, 1)
	a.outer.add(start.outer, -1)
	a.inner.add(end.inner, 1)
	a.inner.add(start.inner, -1)
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perKExec scales a count to events per 1000 executions.
func perKExec(count, execs uint64) float64 {
	return ratio(1000*float64(count), float64(execs))
}

func (a *layerAgg) histMean(h obs.Hist) float64 {
	return ratio(float64(a.lat[h].sumNS), float64(a.lat[h].n))
}

// coreMetrics derives the core, tm and obs-histogram per-layer metrics.
func (a *layerAgg) coreMetrics(put func(name string, v float64)) {
	snap := obs.Snapshot{Counts: a.counts}
	execs := snap.Execs()
	var attempts uint64
	for m := uint8(0); m < obs.NumModes; m++ {
		attempts += snap.Attempts(m)
	}
	share := func(m core.Mode) float64 { return 100 * ratio(float64(snap.Successes(uint8(m))), float64(execs)) }
	commit := func(m core.Mode) float64 {
		return ratio(float64(snap.Successes(uint8(m))), float64(snap.Attempts(uint8(m))))
	}
	put("core.elision_pct", share(core.ModeHTM)+share(core.ModeSWOpt))
	put("core.attempts_per_exec", ratio(float64(attempts), float64(execs)))
	put("core.mode_share.htm", share(core.ModeHTM))
	put("core.mode_share.swopt", share(core.ModeSWOpt))
	put("core.mode_share.lock", share(core.ModeLock))
	put("core.htm_commit_ratio", commit(core.ModeHTM))
	put("core.swopt_commit_ratio", commit(core.ModeSWOpt))
	put("core.granules", float64(a.granules))
	put("locks.hold_mean_ns", a.histMean(obs.HistLockHold))
	put("snzi.group_wait_mean_ns", a.histMean(obs.HistGroupWait))
	put("core.swopt_retry_mean_ns", a.histMean(obs.HistSWOptRetry))
	put("tm.aborts_per_kexec.conflict", perKExec(snap.Aborts(tm.AbortConflict), execs))
	put("tm.aborts_per_kexec.capacity", perKExec(snap.Aborts(tm.AbortCapacity), execs))
	put("tm.aborts_per_kexec.lockheld", perKExec(snap.Aborts(tm.AbortLockHeld), execs))
	put("tm.aborts_per_kexec.spurious", perKExec(snap.Aborts(tm.AbortSpurious), execs))
	put("tm.aborts_per_kexec.explicit", perKExec(snap.Aborts(tm.AbortExplicit), execs))
	put("tm.extensions_per_kexec", perKExec(snap.Get(obs.CtrHTMExtension), execs))
	put("tm.cross_shard_per_kexec", perKExec(snap.Get(obs.CtrCrossShard), execs))
	put("tm.abort_work_ns", ratio(float64(snap.Get(obs.CtrAbortWorkNS)), float64(execs)))
	put("tm.commits", float64(a.commits))
	put("policy.plan_ns", ratio(float64(a.outer.planNS+a.inner.planNS), float64(a.outer.plans+a.inner.plans)))
	put("policy.done_ns", ratio(float64(a.outer.doneNS+a.inner.doneNS), float64(a.outer.dones+a.inner.dones)))
}

// execParts returns, per operation, the time inside outermost Execute
// calls, the policy time spent outside them (outermost locks' Plan and
// Done) and inside them (nested locks' Plan and Done).
func (a *layerAgg) execParts(ops uint64) (exec, polOuter, polInner float64) {
	n := float64(ops)
	execMean := ratio(float64(a.outer.execNS), float64(a.outer.execs))
	exec = execMean * ratio(float64(a.outer.dones), n)
	polOuter = ratio(float64(a.outer.planNS+a.outer.doneNS), n)
	polInner = ratio(float64(a.inner.planNS+a.inner.doneNS), n)
	return exec, polOuter, polInner
}

package main

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tm"
)

func TestPerKExec(t *testing.T) {
	for _, c := range []struct {
		count, execs uint64
		want         float64
	}{
		{0, 1000, 0},
		{1, 1000, 1},
		{3, 2000, 1.5},
		{250, 1000, 250},
		{5, 0, 0},
	} {
		if got := perKExec(c.count, c.execs); got != c.want {
			t.Errorf("perKExec(%d, %d) = %v, want %v", c.count, c.execs, got, c.want)
		}
	}
}

func TestCoreMetricsFromCounters(t *testing.T) {
	var a layerAgg
	a.counts[obs.CtrSuccessHTM] = 600
	a.counts[obs.CtrSuccessSWOpt] = 200
	a.counts[obs.CtrSuccessLock] = 200
	a.counts[obs.CtrAbort(tm.AbortConflict)] = 150
	a.counts[obs.CtrAbort(tm.AbortLockHeld)] = 50
	a.counts[obs.CtrSWOptFail] = 100
	a.counts[obs.CtrAbortWorkNS] = 5000
	m := map[string]float64{}
	a.coreMetrics(func(n string, v float64) { m[n] = v })
	for name, want := range map[string]float64{
		"core.elision_pct":             80,
		"core.mode_share.htm":          60,
		"core.mode_share.lock":         20,
		"core.htm_commit_ratio":        600.0 / 800,
		"core.swopt_commit_ratio":      200.0 / 300,
		"core.attempts_per_exec":       1.3, // 800 HTM + 300 SWOpt + 200 Lock over 1000
		"tm.aborts_per_kexec.conflict": 150,
		"tm.aborts_per_kexec.lockheld": 50,
		"tm.abort_work_ns":             5,
	} {
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestCoveredNS(t *testing.T) {
	p := span{100, 200}
	for _, c := range []struct {
		name string
		kids []span
		want int64
	}{
		{"none", nil, 0},
		{"disjoint", []span{{110, 120}, {150, 170}}, 30},
		{"contiguous", []span{{100, 150}, {150, 200}}, 100},
		{"overlapping", []span{{110, 140}, {130, 160}}, 50},
		{"nested", []span{{110, 190}, {120, 130}}, 80},
		{"unsorted", []span{{150, 170}, {110, 120}}, 30},
		{"clipped", []span{{50, 120}, {190, 260}}, 30},
		{"outside", []span{{10, 20}}, 0},
	} {
		if got := coveredNS(p, c.kids); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

// selfSum adds the printed self times, which must give trace.op_ns.
func selfSum(m map[string]float64) float64 {
	return m["self.wire_ns"] + m["self.server_ns"] + m["self.store_ns"] +
		m["self.core_ns"] + m["self.policy_ns"] + m["self.remainder_ns"]
}

func TestSelfTimesAddUp(t *testing.T) {
	for _, c := range []struct {
		name string
		w    workload
		kids map[int]int64
	}{
		{"wire", workloads[0], map[int]int64{spanSend: 4000, spanWait: 12000}},
		{"store", workloads[1], map[int]int64{spanStore: 900}},
	} {
		r := newRunner(c.w, true)
		r.traces[0].ops = 1
		r.traces[0].selfNS = 100
		r.traces[0].rootNS = 100
		for k, ns := range c.kids {
			r.traces[0].kidNS[k] = ns
			r.traces[0].rootNS += ns
		}
		// One operation: one outermost Execute of 500 ns, whose lock's
		// Plan and Done took 60 ns, and nested locks' Plan and Done 20 ns.
		r.agg.outer = policyTotals{planNS: 40, doneNS: 20, dones: 1, execNS: 500, execs: 1}
		r.agg.inner = policyTotals{planNS: 15, doneNS: 5}
		m := r.perLayerMetrics()
		if got, want := selfSum(m), m["trace.op_ns"]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: self times add up to %v, trace.op_ns is %v", c.name, got, want)
		}
		if got := m["self.policy_ns"]; got != 80 {
			t.Errorf("%s: self.policy_ns = %v, want 80", c.name, got)
		}
		if got := m["self.core_ns"]; got != 480 {
			t.Errorf("%s: self.core_ns = %v, want 500-20", c.name, got)
		}
		if len(m) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", c.name, len(m), len(perLayer))
		}
	}
}

func TestServerRemainder(t *testing.T) {
	r := newRunner(workloads[0], true)
	r.traces[0].ops = 2
	r.traces[0].kidNS[spanSend] = 2 * 5000
	r.traces[0].kidNS[spanWait] = 2 * 16000
	r.agg.outer = policyTotals{planNS: 2 * 100, doneNS: 2 * 50, dones: 2, execNS: 3 * 1200, execs: 3}
	m := r.perLayerMetrics()
	// wait − Execute − the outermost lock's Plan and Done.
	if got, want := m["server.remainder_ns"], 16000.0-1200-150; got != want {
		t.Errorf("server.remainder_ns = %v, want %v", got, want)
	}
	if got := m["server.exec_mean_ns"]; got != 1200 {
		t.Errorf("server.exec_mean_ns = %v, want 1200", got)
	}
}

func TestCheckLiveKeys(t *testing.T) {
	// 10 prepopulated, 3 fresh adds, 2 removes, 4 cleared, 5 sets.
	for final := -1; final <= 15; final++ {
		implied := final - 10 - 3 + 2 + 4
		err := checkLiveKeys(final, 10, 5, 3, 2, 4)
		if ok := implied >= 0 && implied <= 5; ok != (err == nil) {
			t.Errorf("final %d: err %v, want ok=%v", final, err, ok)
		}
	}
}

package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/core"
)

// policyStripes spreads a timed policy's counters so that callers on
// different goroutines rarely add to the same cache line.
const policyStripes = 16

type policyStripe struct {
	planNS, plans, doneNS, dones atomic.Int64
	// execNS and execs sum the sampled Execute durations the engine hands
	// to Done (ExecRecord.Duration, nonzero on the ~3% of executions it
	// times).
	execNS, execs atomic.Int64
	_             [16]byte
}

// timedPolicy wraps one lock's adaptive policy in a traced run. It times
// every Plan and Done call from outside the policy and records when the
// policy first reports Settled.
type timedPolicy struct {
	inner *core.AdaptivePolicy
	// outer marks a lock whose executions are never nested inside another
	// lock's execution, so its Execute durations are per-operation time.
	outer bool

	firstPlan   atomic.Int64
	settled     atomic.Bool
	settleExecs atomic.Int64
	settleNS    atomic.Int64

	stripes [policyStripes]policyStripe
}

// stripe picks a stripe from the address of the calling goroutine's
// stack, which differs between goroutines; a collision only costs
// sharing a cache line.
func (p *timedPolicy) stripe() *policyStripe {
	var probe byte
	a := uint64(uintptr(unsafe.Pointer(&probe))) >> 13
	return &p.stripes[(a*0x9E3779B97F4A7C15)>>60]
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Plan(g *core.Granule, eligHTM, eligSWOpt bool) core.Plan {
	t0 := nanotime()
	if p.firstPlan.Load() == 0 {
		p.firstPlan.CompareAndSwap(0, t0)
	}
	plan := p.inner.Plan(g, eligHTM, eligSWOpt)
	s := p.stripe()
	s.planNS.Add(nanotime() - t0)
	s.plans.Add(1)
	return plan
}

func (p *timedPolicy) Done(g *core.Granule, rec *core.ExecRecord) {
	t0 := nanotime()
	p.inner.Done(g, rec)
	t1 := nanotime()
	s := p.stripe()
	s.doneNS.Add(t1 - t0)
	s.dones.Add(1)
	if p.outer && rec.Duration > 0 {
		s.execNS.Add(int64(rec.Duration))
		s.execs.Add(1)
	}
	if !p.settled.Load() && p.inner.Settled() && p.settled.CompareAndSwap(false, true) {
		p.settleExecs.Store(p.totals().dones)
		p.settleNS.Store(t1 - p.firstPlan.Load())
	}
}

type policyTotals struct {
	planNS, plans, doneNS, dones, execNS, execs int64
}

func (p *timedPolicy) totals() policyTotals {
	var t policyTotals
	for i := range p.stripes {
		s := &p.stripes[i]
		t.planNS += s.planNS.Load()
		t.plans += s.plans.Load()
		t.doneNS += s.doneNS.Load()
		t.dones += s.dones.Load()
		t.execNS += s.execNS.Load()
		t.execs += s.execs.Load()
	}
	return t
}

func (t *policyTotals) add(o policyTotals, sign int64) {
	t.planNS += sign * o.planNS
	t.plans += sign * o.plans
	t.doneNS += sign * o.doneNS
	t.dones += sign * o.dones
	t.execNS += sign * o.execNS
	t.execs += sign * o.execs
}

// policySet builds one adaptive policy per lock, as core.Runtime locks
// and kyoto/server policy factories require, and keeps them for polling.
// In a traced run each policy is wrapped in a timedPolicy.
type policySet struct {
	traced bool
	outer  func(lockName string) bool

	mu       sync.Mutex
	adaptive []*core.AdaptivePolicy
	timed    []*timedPolicy
}

func (ps *policySet) factory(lockName string) core.Policy {
	p := core.NewAdaptive()
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.adaptive = append(ps.adaptive, p)
	if !ps.traced {
		return p
	}
	tp := &timedPolicy{inner: p, outer: ps.outer(lockName)}
	ps.timed = append(ps.timed, tp)
	return tp
}

func (ps *policySet) all() []*core.AdaptivePolicy {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*core.AdaptivePolicy(nil), ps.adaptive...)
}

// started reports whether the lock has executed at least once.
func started(p *core.AdaptivePolicy) bool { return p.StageName() != "unstarted" }

// activeWindow is how recently a lock must have executed to count as in
// use while an episode waits for learning to finish.
const activeWindow = 100 * time.Millisecond

// settleWatch decides when an episode's learning is over: every lock that
// executed within the last activeWindow has settled. A lock the workload
// has stopped reaching (a nested lock once its outer lock elides with
// HTM, or a lock that never executes) has no learning left to pay for,
// and neither has the kyoto method lock's write side, which kyoto.New
// makes lock-only.
type settleWatch struct {
	rt   *core.Runtime
	seen map[*core.Lock]lockSeen
}

func isWriteSide(name string) bool { return strings.HasSuffix(name, ".method(write)") }

type lockSeen struct {
	execs uint64
	at    time.Time
}

func newSettleWatch(rt *core.Runtime) *settleWatch {
	return &settleWatch{rt: rt, seen: map[*core.Lock]lockSeen{}}
}

func (w *settleWatch) settled() bool {
	now := time.Now()
	active, all := 0, true
	for _, l := range w.rt.Locks() {
		var n uint64
		for _, g := range l.Granules() {
			n += g.Execs()
		}
		s := w.seen[l]
		if n != s.execs {
			s = lockSeen{n, now}
			w.seen[l] = s
		}
		if n == 0 || now.Sub(s.at) > activeWindow || isWriteSide(l.Name()) {
			continue
		}
		active++
		if p := adaptiveOf(l.Policy()); p != nil && !p.Settled() {
			all = false
		}
	}
	return active > 0 && all
}

func adaptiveOf(p core.Policy) *core.AdaptivePolicy {
	switch p := p.(type) {
	case *core.AdaptivePolicy:
		return p
	case *timedPolicy:
		return p.inner
	}
	return nil
}

// totals sums the wrapped policies' counters over outermost and nested
// locks.
func (ps *policySet) totals() (outer, inner policyTotals) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for _, tp := range ps.timed {
		if tp.outer {
			outer.add(tp.totals(), 1)
		} else {
			inner.add(tp.totals(), 1)
		}
	}
	return outer, inner
}

// Choice names for policy.choice.<name>, from AdaptivePolicy.FinalChoice.
var choiceNames = []string{"htm-lock", "htm-swopt-lock", "swopt-lock", "lock", "custom", "learning"}

func choiceOf(final string) string {
	switch {
	case final == "uniform HTM+Lock":
		return "htm-lock"
	case final == "uniform HTM+SWOpt+Lock":
		return "htm-swopt-lock"
	case final == "uniform SWOpt+Lock":
		return "swopt-lock"
	case final == "uniform Lock":
		return "lock"
	case strings.HasPrefix(final, "custom"):
		return "custom"
	}
	return "learning"
}

// choices counts the final choice of every lock that has executed.
func (ps *policySet) choices() map[string]int {
	m := map[string]int{}
	for _, p := range ps.all() {
		if started(p) {
			m[choiceOf(p.FinalChoice())]++
		}
	}
	return m
}

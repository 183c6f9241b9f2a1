package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/hashmap"
	"repro/internal/kyoto"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/tm"
	"repro/internal/xrand"
)

// callers is the number of concurrent closed-loop callers of every
// workload: the host's 2 cores.
const callers = 2

// newRuntime builds the Haswell-profile runtime every workload runs on.
// Traced episodes turn on the obs collector and the timing layer.
func newRuntime(traced bool) (*core.Runtime, *obs.Collector) {
	opts := core.DefaultOptions()
	var coll *obs.Collector
	if traced {
		coll = obs.New()
		opts.Obs = coll
		opts.Timing = true
	}
	return core.NewRuntimeOpts(tm.NewDomain(platform.Haswell().Profile), opts), coll
}

// callerRNG derives caller i's generator from the episode seed.
func callerRNG(seed uint64, i int) *xrand.State {
	return xrand.New(seed*0x9E3779B97F4A7C15 + uint64(i)*7919 + 13)
}

// called ends the operation's measured store call, started at t0, and
// records it as a store span in traced runs.
func (r *opRec) called(t0 int64) {
	t1 := nanotime()
	r.lat = t1 - t0
	if r.traced {
		r.addSpan(spanStore, span{t0, t1})
	}
}

const hashMapKeys = 4096

var hashMapVerbs = []string{"get", "insert", "remove"}

// hashMapCaller is one caller's view of the cs-hashmap store and its
// running tally of the live-key count.
type hashMapCaller struct {
	h              *hashmap.Handle
	rng            *xrand.State
	fresh, removed int
	hits, lookups  uint64
}

func (c *hashMapCaller) op(r *opRec) error {
	key := c.rng.Uint64n(hashMapKeys) + 1
	var err error
	switch p := c.rng.Intn(100); {
	case p < 10:
		r.verb = 1
		var fresh bool
		t0 := nanotime()
		fresh, err = c.h.Insert(key, key*1000)
		r.called(t0)
		if fresh {
			c.fresh++
		}
	case p < 20:
		r.verb = 2
		var ok bool
		t0 := nanotime()
		ok, err = c.h.Remove(key)
		r.called(t0)
		if ok {
			c.removed++
		}
	default:
		var v uint64
		var ok bool
		t0 := nanotime()
		v, ok, err = c.h.Get(key)
		r.called(t0)
		c.lookups++
		if ok {
			c.hits++
			if v != key*1000 {
				return fmt.Errorf("get %d = %d: %w", key, v, errWrong)
			}
		}
	}
	return err
}

// newHashMapEpisode builds the paper's section 3 HashMap (one lock, one
// conflict marker) with half of its keys present.
func newHashMapEpisode(seed uint64, traced bool) (*episode, error) {
	rt, coll := newRuntime(traced)
	ps := &policySet{traced: traced, outer: func(string) bool { return true }}
	m := hashmap.New(rt, "tbl", hashmap.Config{
		Buckets:       hashMapKeys / 4,
		Capacity:      hashMapKeys*2 + 4096,
		MarkerStripes: 1,
	}, ps.factory("tbl"))
	seedH := m.NewHandle()
	prepop := 0
	for k := uint64(2); k <= hashMapKeys; k += 2 {
		if _, err := seedH.Insert(k, k*1000); err != nil {
			return nil, fmt.Errorf("prepopulate: %w", err)
		}
		prepop++
	}
	cs := make([]*hashMapCaller, callers)
	ep := &episode{rt: rt, coll: coll, ps: ps}
	for i := range cs {
		cs[i] = &hashMapCaller{h: m.NewHandle(), rng: callerRNG(seed, i)}
		ep.ops = append(ep.ops, cs[i].op)
	}
	ep.hitStats = func() (hits, lookups uint64) {
		for _, c := range cs {
			hits += c.hits
			lookups += c.lookups
		}
		return hits, lookups
	}
	ep.check = func() error {
		want := prepop
		for _, c := range cs {
			want += c.fresh - c.removed
		}
		n, err := seedH.Len()
		if err != nil {
			return fmt.Errorf("len: %w", err)
		}
		if n != want {
			return fmt.Errorf("len %d, want %d (prepopulated + fresh inserts - removes): %w", n, want, errWrong)
		}
		return nil
	}
	return ep, nil
}

var wickedVerbs = []string{"get", "set", "remove", "add", "clear", "count"}

// wickedCaller is one caller's view of the cs-wicked store and its tally
// of the changes to the live-key count it can observe.
type wickedCaller struct {
	w         kyoto.Wicked
	h         *kyoto.Handle
	rng       *xrand.State
	sets      int
	freshAdds int
	removed   int
	cleared   int
	hits      uint64
	lookups   uint64
}

// op draws operations exactly as kyoto.Wicked.Step does, so the traffic is
// the wicked mix, and times the one store call.
func (c *wickedCaller) op(r *opRec) error {
	w := c.w
	key := c.rng.Uint64n(w.KeyRange) + 1
	p := int(c.rng.Uint64n(1000))
	var err error
	switch {
	case p < w.SetPct:
		r.verb = 1
		val := key*1000 + c.rng.Uint64n(1000)
		t0 := nanotime()
		err = c.h.Set(key, val)
		r.called(t0)
		c.sets++
	case p < w.SetPct+w.GetPct:
		var ok bool
		t0 := nanotime()
		_, ok, err = c.h.Get(key)
		r.called(t0)
		c.lookups++
		if ok {
			c.hits++
		}
	case p < w.SetPct+w.GetPct+w.RemovePct:
		r.verb = 2
		var ok bool
		t0 := nanotime()
		ok, err = c.h.Remove(key)
		r.called(t0)
		if ok {
			c.removed++
		}
	case p < w.SetPct+w.GetPct+w.RemovePct+w.AddPct:
		r.verb = 3
		var v uint64
		t0 := nanotime()
		v, err = c.h.Add(key, 1)
		r.called(t0)
		// Set values are at least 1000 and Add increments, so a new value
		// of 1 means Add created the key.
		if err == nil && v == 1 {
			c.freshAdds++
		}
	case p < w.SetPct+w.GetPct+w.RemovePct+w.AddPct+w.ClearPct:
		r.verb = 4
		var n int
		t0 := nanotime()
		n, err = c.h.Clear()
		r.called(t0)
		c.cleared += n
	default:
		r.verb = 5
		var n int
		t0 := nanotime()
		n, err = c.h.Count()
		r.called(t0)
		if err == nil && (n < 0 || uint64(n) > w.KeyRange) {
			return fmt.Errorf("count %d outside [0, %d]: %w", n, w.KeyRange, errWrong)
		}
	}
	return err
}

// checkLiveKeys verifies the live-key count of a store whose Set does not
// report whether it created the key: the fresh Sets implied by the final
// count must lie between 0 and the number of Sets issued.
func checkLiveKeys(final, prepop, sets, freshAdds, removed, cleared int) error {
	implied := final - prepop - freshAdds + removed + cleared
	if implied < 0 || implied > sets {
		return fmt.Errorf("count %d implies %d fresh sets of %d (prepopulated %d, fresh adds %d, removes %d, cleared %d): %w",
			final, implied, sets, prepop, freshAdds, removed, cleared, errWrong)
	}
	return nil
}

// isMethodLock reports whether a kyoto lock is one side of the method
// lock, which record and whole-DB operations enter first.
func isMethodLock(name string) bool { return strings.Contains(name, ".method(") }

// newWickedEpisode builds the paper's section 5 Kyoto CacheDB stand-in
// (readers-writer method lock over 16 slot locks) prepopulated as the
// wicked workload does.
func newWickedEpisode(seed uint64, traced bool) (*episode, error) {
	rt, coll := newRuntime(traced)
	ps := &policySet{traced: traced, outer: isMethodLock}
	w := kyoto.DefaultWicked()
	db := kyoto.New(rt, "db", kyoto.Config{
		Slots:        16,
		SlotBuckets:  int(w.KeyRange)/32 + 16,
		SlotCapacity: int(w.KeyRange) + 4096,
	}, ps.factory)
	seedH := db.NewHandle()
	if err := w.Prepopulate(seedH); err != nil {
		return nil, fmt.Errorf("prepopulate: %w", err)
	}
	prepop, err := seedH.Count()
	if err != nil {
		return nil, fmt.Errorf("count: %w", err)
	}
	cs := make([]*wickedCaller, callers)
	ep := &episode{rt: rt, coll: coll, ps: ps}
	for i := range cs {
		cs[i] = &wickedCaller{w: w, h: db.NewHandle(), rng: callerRNG(seed, i)}
		ep.ops = append(ep.ops, cs[i].op)
	}
	ep.hitStats = func() (hits, lookups uint64) {
		for _, c := range cs {
			hits += c.hits
			lookups += c.lookups
		}
		return hits, lookups
	}
	ep.check = func() error {
		var sets, freshAdds, removed, cleared int
		for _, c := range cs {
			sets += c.sets
			freshAdds += c.freshAdds
			removed += c.removed
			cleared += c.cleared
		}
		n, err := seedH.Count()
		if err != nil {
			return fmt.Errorf("count: %w", err)
		}
		return checkLiveKeys(n, prepop, sets, freshAdds, removed, cleared)
	}
	return ep, nil
}

package main

import (
	"bufio"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/load"
	"repro/internal/locks"
	"repro/internal/platform"
	"repro/internal/tm"
	"repro/internal/xrand"
)

// blockingEpisode is a store whose critical section blocks forever on the
// given call of caller 0, the way a marker stuck odd does, while caller 1
// keeps working until it needs the same lock.
func blockingEpisode(blockAt int64, release <-chan struct{}) func(uint64, bool) (*episode, error) {
	return func(seed uint64, traced bool) (*episode, error) {
		rt := core.NewRuntime(tm.NewDomain(platform.Haswell().Profile))
		ps := &policySet{traced: traced, outer: func(string) bool { return true }}
		l := rt.NewLock("fake", locks.NewTATAS(rt.Domain()), core.NewLockOnly())
		scope := core.NewScope("fake.op")
		ep := &episode{rt: rt, ps: ps, check: func() error { return nil },
			hitStats: func() (uint64, uint64) { return 0, 0 }}
		var calls atomic.Int64
		for i := 0; i < callers; i++ {
			thr := rt.NewThread()
			cs := &core.CS{Scope: scope, Body: func(*core.ExecCtx) error {
				if calls.Add(1) == blockAt {
					<-release
				}
				return nil
			}}
			ep.ops = append(ep.ops, func(r *opRec) error {
				t0 := nanotime()
				err := l.Execute(thr, cs)
				r.called(t0)
				return err
			})
		}
		return ep, nil
	}
}

func TestBlockedStoreEndsRunByDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	w := workload{name: "blocking", episodes: 2, newEpisode: blockingEpisode(5000, release)}
	r := newRunner(w, false)
	start := time.Now()
	if err := r.run(1, 60); err != nil {
		t.Fatal(err)
	}
	// The lock is held forever from the 5000th call on: the stall
	// detector ends the run long before its 60 measured seconds.
	if d := time.Since(start); d > stallBound+grace+5*time.Second {
		t.Errorf("run took %v", d)
	}
	if r.stuck < 1 || r.stuck > callers {
		t.Errorf("stuck = %d, want 1..%d", r.stuck, callers)
	}
	if r.failed != uint64(r.stuck) || r.attempted < 4999 {
		t.Errorf("failed %d of %d attempted, want the %d stuck of at least 4999", r.failed, r.attempted, r.stuck)
	}
	if len(r.episodes) != 1 || !r.episodes[0].Stalled {
		t.Errorf("episodes = %+v, want one stalled episode", r.episodes)
	}
	if len(r.stuckWhere) == 0 || !strings.Contains(r.stuckWhere[0], "lock fake") {
		t.Errorf("stuck report %q does not name the lock", r.stuckWhere)
	}
	m := r.endToEndMetrics()
	if _, err := encodeResult(r.wrong == 0, r.attempted, r.failed, endToEnd, m); err != nil {
		t.Errorf("result: %v", err)
	}
}

// TestSilentServerEndsRun runs a wire caller against a peer that reads
// requests and never replies: the operation counts as never returned, and
// the read deadline then releases the caller.
func TestSilentServerEndsRun(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	defer srv.Close()
	go func() {
		br := bufio.NewReader(srv)
		for {
			if _, err := br.ReadString('\n'); err != nil {
				return
			}
		}
	}()
	c := &wireCaller{conn: client, br: bufio.NewReader(client), bw: bufio.NewWriter(client),
		rng: xrand.New(1), mix: load.DefaultMix()}
	l := newRunLoop([]opFunc{c.op}, []*latHist{new(latHist)}, nil, 200*time.Millisecond, 200*time.Millisecond)
	l.start()
	if ok, _ := l.waitUntil(time.Now().Add(time.Minute), nil); ok {
		t.Fatal("a caller that never gets a reply did not stall")
	}
	if stuck := l.finish(); stuck != 1 {
		t.Fatalf("stuck = %d, want 1", stuck)
	}
	_ = client.SetReadDeadline(time.Unix(1, 0))
	if !waitClosed(l.callers[0].exited, 5*time.Second) {
		t.Error("the read deadline did not release the caller")
	}
	if l.completed() != 0 {
		t.Errorf("completed = %d, want 0", l.completed())
	}
}

func TestStuckFrames(t *testing.T) {
	dump := `goroutine 7 [runnable]:
repro/internal/core.(*ConflictMarker).ReadStable(...)
	/src/internal/core/marker.go:105
repro/internal/hashmap.(*Handle).buildCS.func1(0xc000010000)
	/src/internal/hashmap/hashmap.go:300 +0x20
repro/internal/core.(*Lock).runAttempts(0xc0000a0000, 0xc0000b0000)
	/src/internal/core/engine.go:380 +0x40
repro/internal/core.(*Lock).Execute(0xc0000a0000, 0xc0000b0000, 0xc0000c0000)
	/src/internal/core/engine.go:150 +0x60
main.(*caller).loop(0xc0000d0000, 0xc0000e0000)
	/src/perfbench/harness.go:150 +0x80

goroutine 8 [chan receive]:
main.main()
	/src/perfbench/main.go:10 +0x10`
	got := stuckFrames(dump, map[string]string{"0xc0000a0000": "tbl"})
	if len(got) != 1 || got[0] != "lock tbl, in core.(*ConflictMarker).ReadStable" {
		t.Errorf("stuckFrames = %q", got)
	}
}

// TestWorkloads runs one untraced and one traced episode of every
// workload and checks that the outputs verify and every metric prints.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		w.episodes = 2
		r := newRunner(w, true)
		if err := r.run(1, 1); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.wrong != 0 || r.failed != uint64(r.stuck) {
			t.Errorf("%s: %d wrong, %d failed, %d stuck: %q", w.name, r.wrong, r.failed, r.stuck, r.problems)
		}
		if _, err := encodeResult(true, r.attempted, r.failed, endToEnd, r.endToEndMetrics()); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		m := r.perLayerMetrics()
		if _, err := encodeResult(true, r.attempted, r.failed, perLayer, m); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		if r.stuck == 0 && m["trace.op_ns"] <= 0 {
			t.Errorf("%s: no traced operations", w.name)
		}
	}
}

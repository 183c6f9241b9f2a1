package main

import (
	"errors"
	"sync/atomic"
	"time"
)

var clockBase = time.Now()

// nanotime reads the monotonic clock in nanoseconds.
func nanotime() int64 { return int64(time.Since(clockBase)) }

// errWrong marks an operation whose output was checked and found wrong,
// as opposed to one the program reported as failed (an error reply).
var errWrong = errors.New("wrong answer")

// span is one timed interval on the nanotime clock.
type span struct{ start, end int64 }

func (s span) dur() int64 { return s.end - s.start }

// Child span kinds an operation can record in a traced run.
const (
	spanStore = iota // one store Handle call
	spanSend         // server.WriteRequest + Flush
	spanWait         // server.ReadReply
	numSpanKinds
)

var spanNames = [numSpanKinds]string{"store", "send", "wait"}

// opRec is what one operation reports to its caller loop.
type opRec struct {
	// lat is the operation's end-to-end latency: the store call, or the
	// wire round trip from request write to reply parsed.
	lat int64
	// verb indexes the workload's verbs (per-verb store latency).
	verb int
	// traced is set by the loop in traced runs; the operation then fills
	// kids with the spans of its calls into each layer.
	traced bool
	kids   [2]span
	kind   [2]int
	nkids  int
}

func (r *opRec) addSpan(kind int, s span) {
	r.kids[r.nkids], r.kind[r.nkids] = s, kind
	r.nkids++
}

// opFunc runs one operation. A non-nil error marks it failed; errWrong
// (possibly wrapped) marks a wrong output.
type opFunc func(r *opRec) error

// coveredNS returns how much of parent the union of kids covers. A
// span's self time is its duration minus this.
func coveredNS(parent span, kids []span) int64 {
	var buf [4]span
	ivs := buf[:0]
	for _, k := range kids {
		if k.start < parent.start {
			k.start = parent.start
		}
		if k.end > parent.end {
			k.end = parent.end
		}
		if k.end > k.start {
			ivs = append(ivs, k)
		}
	}
	// Insertion sort: an operation has at most a handful of kids.
	for i := 1; i < len(ivs); i++ {
		for j := i; j > 0 && ivs[j].start < ivs[j-1].start; j-- {
			ivs[j], ivs[j-1] = ivs[j-1], ivs[j]
		}
	}
	var total int64
	cur := span{start: -1, end: -1}
	for _, iv := range ivs {
		if iv.start > cur.end {
			if cur.end > cur.start {
				total += cur.dur()
			}
			cur = iv
		} else if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	if cur.end > cur.start {
		total += cur.dur()
	}
	return total
}

// keepSpans is how many traced operations per caller keep their spans
// for the span file written at the end of a run.
const keepSpans = 2048

type spanRow struct {
	Op    uint64 `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Self  *int64 `json:"self_ns,omitempty"`
}

// traceAgg accumulates one caller's traced-operation spans.
type traceAgg struct {
	ops      uint64
	rootNS   int64 // whole loop iteration: generate, call, check, record
	selfNS   int64 // root minus the layer spans it covers
	kidNS    [numSpanKinds]int64
	verbLat  []*latHist
	kept     []spanRow
	opIDBase uint64
}

// caller is one closed-loop client: it issues its next operation only
// after the previous one returned.
type caller struct {
	op  opFunc
	lat *latHist

	done   atomic.Uint64 // completed operations, read by the stall detector
	failed uint64
	wrong  uint64
	exited chan struct{}

	trace *traceAgg
}

// loop is the caller goroutine. It records only while l.measuring is set
// and stops before recording once l.stop is set, so after stop the loop
// touches its caller only if it is still inside an operation.
func (c *caller) loop(l *runLoop) {
	defer close(c.exited)
	var r opRec
	for !l.stop.Load() {
		r = opRec{traced: c.trace != nil}
		var t0 int64
		if r.traced {
			t0 = nanotime()
		}
		err := c.op(&r)
		if l.stop.Load() {
			return
		}
		if err != nil {
			c.failed++
			if errors.Is(err, errWrong) {
				c.wrong++
			}
		}
		if l.measuring.Load() {
			c.lat.record(r.lat)
			if r.traced {
				c.recordTrace(&r, t0)
			}
		}
		c.done.Add(1)
	}
}

func (c *caller) recordTrace(r *opRec, t0 int64) {
	t := c.trace
	kids := r.kids[:r.nkids]
	root := span{t0, nanotime()}
	self := root.dur() - coveredNS(root, kids)
	t.ops++
	t.rootNS += root.dur()
	t.selfNS += self
	for i, k := range kids {
		t.kidNS[r.kind[i]] += k.dur()
	}
	if t.verbLat != nil {
		t.verbLat[r.verb].record(r.lat)
	}
	if t.ops <= keepSpans {
		id := t.opIDBase + t.ops
		t.kept = append(t.kept, spanRow{Op: id, Name: "op", Start: root.start, End: root.end, Self: &self})
		for i, k := range kids {
			t.kept = append(t.kept, spanRow{Op: id, Name: spanNames[r.kind[i]], Start: k.start, End: k.end})
		}
	}
}

// runLoop drives the callers of one episode through a warm-up and a
// measured window, ending early when no caller completes an operation
// within stallBound.
type runLoop struct {
	callers    []*caller
	stop       atomic.Bool
	measuring  atomic.Bool
	stallBound time.Duration
	grace      time.Duration
	// poll is how often waitUntil checks its condition. Without one it
	// wakes only often enough to see a stall, so that the measured callers
	// share the cores with as few wake-ups as possible.
	poll time.Duration
}

func newRunLoop(ops []opFunc, lats []*latHist, traces []*traceAgg, stallBound, grace time.Duration) *runLoop {
	l := &runLoop{stallBound: stallBound, grace: grace, poll: 5 * time.Millisecond}
	for i, op := range ops {
		c := &caller{op: op, lat: lats[i], exited: make(chan struct{})}
		if traces != nil {
			c.trace = traces[i]
		}
		l.callers = append(l.callers, c)
	}
	return l
}

func (l *runLoop) start() {
	for _, c := range l.callers {
		go c.loop(l)
	}
}

func (l *runLoop) completed() uint64 {
	var n uint64
	for _, c := range l.callers {
		n += c.done.Load()
	}
	return n
}

// waitUntil returns true once cond holds or the deadline passes, and
// false if the callers stall first. end is when it returned, or for a
// stall the last time a caller was seen completing an operation, so that
// the wait for the stall to show is not counted as measured time.
func (l *runLoop) waitUntil(deadline time.Time, cond func() bool) (ok bool, end time.Time) {
	last := l.completed()
	lastAt := time.Now()
	poll := l.poll
	if cond == nil {
		poll = l.stallBound / 10
	}
	for {
		now := time.Now()
		if !now.Before(deadline) || (cond != nil && cond()) {
			return true, now
		}
		if n := l.completed(); n != last {
			last, lastAt = n, now
		} else if now.Sub(lastAt) >= l.stallBound {
			return false, lastAt
		}
		sleep := poll
		if d := deadline.Sub(now); d < sleep {
			sleep = d
		}
		time.Sleep(sleep)
	}
}

// finish stops the callers and waits up to the grace period for each to
// leave its current operation. It returns how many did not: each of those
// is one operation that never returned.
func (l *runLoop) finish() (stuck int) {
	l.stop.Store(true)
	deadline := time.Now().Add(l.grace)
	for _, c := range l.callers {
		if !waitClosed(c.exited, time.Until(deadline)) {
			stuck++
		}
	}
	return stuck
}

// waitClosed reports whether ch is closed within d.
func waitClosed(ch <-chan struct{}, d time.Duration) bool {
	select {
	case <-ch:
		return true
	default:
	}
	if d <= 0 {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ch:
		return true
	case <-t.C:
		return false
	}
}

// bounded runs f on its own goroutine and reports whether it returned
// within d. A false result leaves the goroutine behind.
func bounded(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	return waitClosed(done, d)
}

// Command perfbench is the repository benchmark. It runs one workload
// against the ALE stores or the aleserve server, checks the outputs, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/obs"
)

// episode is one fresh instance of a workload: its own runtime, store,
// policies and callers.
type episode struct {
	ops  []opFunc
	rt   *core.Runtime
	coll *obs.Collector // nil in untraced episodes
	ps   *policySet
	// check verifies the store's outputs once the callers have stopped.
	check    func() error
	hitStats func() (hits, lookups uint64)

	// The fields below are set by kv-wire only.
	setReadDeadline func(time.Time)
	served          func() uint64
	replay          func() (parseNS, encodeNS float64, err error)
	close           func()
}

type workload struct {
	name string
	// episodes is how many fresh episodes one run pools; the measured
	// time is split evenly between them.
	episodes int
	// byHand marks a workload BENCHMARK.json does not list: cs-hashmap,
	// whose runs lose operations to the conflict-marker parity hang.
	byHand     bool
	verbs      []string // store verbs, for store.<verb>_ns
	newEpisode func(seed uint64, traced bool) (*episode, error)
}

var workloads = []workload{
	{name: "kv-wire", episodes: 6, newEpisode: newWireEpisode},
	{name: "cs-hashmap", episodes: 120, byHand: true, verbs: hashMapVerbs, newEpisode: newHashMapEpisode},
	{name: "cs-wicked", episodes: 24, verbs: wickedVerbs, newEpisode: newWickedEpisode},
}

const (
	// settleBound bounds the learning wait of an episode's set-up.
	settleBound = 2500 * time.Millisecond
	// stallBound ends a run when no caller completes an operation for
	// this long.
	stallBound = time.Second
	// grace is how long a stopped caller may take to finish its
	// operation before that operation counts as never returned.
	grace = time.Second
	// checkBound bounds the output check of an episode.
	checkBound = 2 * time.Second
	// hardLimit ends the process if a run somehow outlives every bound
	// above.
	hardLimit = 170 * time.Second
)

type episodeInfo struct {
	Seed    uint64         `json:"seed"`
	Traced  bool           `json:"traced"`
	Settled bool           `json:"settled"`
	SetupS  float64        `json:"setup_s"`
	WindowS float64        `json:"window_s"`
	Ops     uint64         `json:"ops"`
	P50NS   int64          `json:"p50_ns"`
	P99NS   int64          `json:"p99_ns"`
	Choices map[string]int `json:"final_choice"`
	Stalled bool           `json:"stalled,omitempty"`
	Stuck   int            `json:"stuck_ops,omitempty"`
}

// runner accumulates one run's episodes.
type runner struct {
	w     workload
	trace bool

	// Untraced episodes.
	untraced struct {
		ops uint64
		win time.Duration
	}
	p50s, p99s, setups []float64

	attempted, failed, wrong uint64
	stuck                    int
	stuckWhere, problems     []string

	// Traced episodes.
	traces        []*traceAgg
	agg           layerAgg
	tracedOps     uint64
	tracedWin     time.Duration
	hits, lookups uint64
	served        uint64
	parse, encode []float64
	settleExecs   []float64
	settleMS      []float64
	choices       map[string]int

	episodes []episodeInfo
}

func newRunner(w workload, trace bool) *runner {
	r := &runner{w: w, trace: trace, choices: map[string]int{}}
	for i := 0; i < callers; i++ {
		t := &traceAgg{opIDBase: uint64(i) << 40}
		for range w.verbs {
			t.verbLat = append(t.verbLat, new(latHist))
		}
		r.traces = append(r.traces, t)
	}
	return r
}

// run executes the workload's episodes, splitting the measured time
// evenly; in a traced run every other episode is traced, so the untraced
// ones give the tracing overhead. It stops after an episode that stalled
// or left an operation unreturned.
func (r *runner) run(seed uint64, seconds int) error {
	window := time.Duration(seconds) * time.Second / time.Duration(r.w.episodes)
	for e := 0; e < r.w.episodes; e++ {
		traced := r.trace && e%2 == 1
		cont, err := r.episode(seed*1_000_003+uint64(e), traced, window)
		if err != nil {
			return err
		}
		if !cont {
			break
		}
	}
	return nil
}

func (r *runner) episode(seed uint64, traced bool, window time.Duration) (bool, error) {
	info := episodeInfo{Seed: seed, Traced: traced}
	start := time.Now()
	ep, err := r.w.newEpisode(seed, traced)
	if err != nil {
		return false, fmt.Errorf("episode set-up: %w", err)
	}
	lats := make([]*latHist, callers)
	for i := range lats {
		lats[i] = new(latHist)
	}
	var traces []*traceAgg
	if traced {
		traces = r.traces
	}
	loop := newRunLoop(ep.ops, lats, traces, stallBound, grace)
	if ep.setReadDeadline != nil {
		ep.setReadDeadline(start.Add(settleBound + window + stallBound + grace))
	}
	loop.start()
	sw := newSettleWatch(ep.rt)
	ok, _ := loop.waitUntil(time.Now().Add(settleBound), sw.settled)
	info.Settled = sw.settled()
	if ok {
		setup := time.Since(start)
		info.SetupS = setup.Seconds()
		r.setups = append(r.setups, setup.Seconds())
		var s0 layerSnap
		if traced {
			s0 = readLayers(ep.rt, ep.coll, ep.ps)
		}
		d0 := loop.completed()
		loop.measuring.Store(true)
		w0 := time.Now()
		var end time.Time
		ok, end = loop.waitUntil(w0.Add(window), nil)
		elapsed := end.Sub(w0)
		n := loop.completed() - d0
		if traced {
			r.agg.add(s0, readLayers(ep.rt, ep.coll, ep.ps))
			r.tracedOps += n
			r.tracedWin += elapsed
		} else {
			r.untraced.ops += n
			r.untraced.win += elapsed
		}
		info.WindowS, info.Ops = elapsed.Seconds(), n
	}
	info.Stalled = !ok
	stuck := loop.finish()
	var epLat latHist
	for _, h := range lats {
		epLat.merge(h)
	}
	info.P50NS, info.P99NS = epLat.quantile(0.50), epLat.quantile(0.99)
	if !traced && epLat.n > 0 {
		r.p50s = append(r.p50s, float64(info.P50NS))
		r.p99s = append(r.p99s, float64(info.P99NS))
	}
	if stuck > 0 && ep.setReadDeadline != nil {
		// Unblock clients waiting on a server that will never answer.
		ep.setReadDeadline(time.Unix(1, 0))
	}
	for _, c := range loop.callers {
		r.attempted += c.done.Load()
		r.failed += c.failed
		r.wrong += c.wrong
	}
	if stuck == 0 {
		// The check is one more operation on the store.
		var cerr error
		switch {
		case !bounded(checkBound, func() { cerr = ep.check() }):
			stuck = 1
		case cerr != nil:
			r.attempted++
			r.failed++
			if errors.Is(cerr, errWrong) {
				r.wrong++
			}
			r.problems = append(r.problems, cerr.Error())
		default:
			r.attempted++
		}
	}
	if stuck > 0 {
		info.Stuck = stuck
		r.stuck += stuck
		r.attempted += uint64(stuck)
		r.failed += uint64(stuck)
		r.stuckWhere = append(r.stuckWhere, stuckReport(ep.rt)...)
	}
	if traced {
		r.tracedEpisode(ep, stuck == 0)
	}
	info.Choices = ep.ps.choices()
	for k, v := range info.Choices {
		r.choices[k] += v
	}
	if ep.close != nil {
		ep.close()
	}
	r.episodes = append(r.episodes, info)
	return ok && stuck == 0, nil
}

// tracedEpisode collects the per-layer readings that need the episode's
// objects; quiet is false when a caller may still be running.
func (r *runner) tracedEpisode(ep *episode, quiet bool) {
	for _, tp := range ep.ps.timed {
		if tp.settled.Load() {
			r.settleExecs = append(r.settleExecs, float64(tp.settleExecs.Load()))
			r.settleMS = append(r.settleMS, float64(tp.settleNS.Load())/1e6)
		}
	}
	if ep.served != nil {
		r.served += ep.served()
	}
	if !quiet {
		return
	}
	h, l := ep.hitStats()
	r.hits += h
	r.lookups += l
	if ep.replay != nil {
		p, e, err := ep.replay()
		if err != nil {
			r.failed++
			if errors.Is(err, errWrong) {
				r.wrong++
			}
			r.problems = append(r.problems, err.Error())
			return
		}
		r.parse = append(r.parse, p)
		r.encode = append(r.encode, e)
	}
}

// endToEndMetrics computes the untraced run's metrics. Each episode is a
// freshly learned instance of the system, and the learned configuration
// moves its tail: cs-wicked episodes fall into two clusters of p99 about
// 1.7x apart. A quantile pooled over episodes jumps with the share of
// episodes in each cluster, so the quantiles are each episode's exact
// quantile averaged over the episodes.
func (r *runner) endToEndMetrics() map[string]float64 {
	return map[string]float64{
		"throughput_ops_s": ratio(float64(r.untraced.ops), r.untraced.win.Seconds()),
		"p50_ns":           mean(r.p50s),
		"p99_ns":           mean(r.p99s),
		"setup_s":          median(append([]float64(nil), r.setups...)),
	}
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return ratio(sum, float64(len(xs)))
}

// perLayerMetrics computes the traced run's metrics. Self times are per
// traced operation and add up to trace.op_ns.
func (r *runner) perLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	put := func(name string, v float64) { m[name] = v }

	var t traceAgg
	verbLat := make([]latHist, len(r.w.verbs))
	for _, c := range r.traces {
		t.ops += c.ops
		t.rootNS += c.rootNS
		t.selfNS += c.selfNS
		for k := range t.kidNS {
			t.kidNS[k] += c.kidNS[k]
		}
		for v := range verbLat {
			verbLat[v].merge(c.verbLat[v])
		}
	}
	n := float64(t.ops)
	perOp := func(ns int64) float64 { return ratio(float64(ns), n) }
	store, send, wait := perOp(t.kidNS[spanStore]), perOp(t.kidNS[spanSend]), perOp(t.kidNS[spanWait])
	exec, polOuter, polInner := r.agg.execParts(t.ops)
	// The outermost Execute and its lock's Plan and Done run inside the
	// store call (cs-*) or the server's reply wait (kv-wire); nested locks'
	// Plan and Done run inside the outermost Execute.
	var selfServer, selfStore float64
	if wait > 0 {
		selfServer = wait - exec - polOuter
	}
	if store > 0 {
		selfStore = store - exec - polOuter
	}
	put("trace.op_ns", perOp(t.rootNS))
	put("self.wire_ns", send)
	put("self.server_ns", selfServer)
	put("self.store_ns", selfStore)
	put("self.core_ns", exec-polInner)
	put("self.policy_ns", polOuter+polInner)
	put("self.remainder_ns", perOp(t.selfNS))

	put("wire.send_ns", send)
	put("wire.wait_ns", wait)
	execMean := 0.0
	if wait > 0 {
		execMean = ratio(float64(r.agg.outer.execNS), float64(r.agg.outer.execs))
	}
	put("server.exec_mean_ns", execMean)
	put("server.remainder_ns", selfServer)
	put("wire.parse_ns", median(r.parse))
	put("wire.encode_ns", median(r.encode))
	put("server.ops_served", float64(r.served))

	for _, verb := range []string{"get", "insert", "set", "remove", "add", "clear", "count"} {
		put("store."+verb+"_ns", 0)
	}
	for v, verb := range r.w.verbs {
		put("store."+verb+"_ns", float64(verbLat[v].quantile(0.5)))
	}
	put("store.get_hit_pct", 100*ratio(float64(r.hits), float64(r.lookups)))

	put("policy.settle_execs", median(r.settleExecs))
	put("policy.settle_ms", median(r.settleMS))
	var locks int
	for _, c := range r.choices {
		locks += c
	}
	for _, name := range choiceNames {
		put("policy.choice."+name, 100*ratio(float64(r.choices[name]), float64(locks)))
	}
	r.agg.coreMetrics(put)

	untraced := ratio(float64(r.untraced.ops), r.untraced.win.Seconds())
	traced := ratio(float64(r.tracedOps), r.tracedWin.Seconds())
	put("obs.trace_overhead_pct", 100*ratio(untraced-traced, untraced))
	put("stuck_ops", float64(r.stuck))
	put("failed_frac", ratio(float64(r.failed), float64(r.attempted)))
	return m
}

// writeSpans writes the kept spans of the traced operations as JSON lines.
func (r *runner) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, t := range r.traces {
		for _, row := range t.kept {
			if err := enc.Encode(row); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

func main() {
	name := flag.String("workload", "", "workload to run: kv-wire, cs-hashmap or cs-wicked")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "measured seconds, split over the run's episodes")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload kv-wire|cs-hashmap|cs-wicked, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(hardLimit, func() {
		buf := make([]byte, 1<<20)
		fmt.Fprintf(os.Stderr, "perfbench: run outlived %v\n%s\n", hardLimit, buf[:runtime.Stack(buf, true)])
		os.Exit(3)
	})

	r := newRunner(*w, *trace == 1)
	if err := r.run(*seed, *seconds); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, s := range r.stuckWhere {
		fmt.Fprintf(os.Stderr, "perfbench: stuck operation: %s\n", s)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if r.trace {
		defs, values = perLayer, r.perLayerMetrics()
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, *seed))
		if err := r.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans: %v\n", err)
		}
	} else {
		values = r.endToEndMetrics()
	}
	env, err := json.Marshal(struct {
		Workload   string         `json:"workload"`
		Seed       uint64         `json:"seed"`
		Seconds    int            `json:"seconds"`
		Trace      bool           `json:"trace"`
		GOMAXPROCS int            `json:"gomaxprocs"`
		NProc      int            `json:"nproc"`
		Env        bench.MicroEnv `json:"env"`
		Episodes   []episodeInfo  `json:"episodes"`
		Stuck      []string       `json:"stuck,omitempty"`
	}{w.name, *seed, *seconds, r.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), bench.CaptureEnv(), r.episodes, r.stuckWhere})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(env))

	attempted := r.attempted
	if attempted == 0 {
		// Nothing completed and nothing was left stuck: the run never got
		// going, which counts as one failed operation.
		attempted, r.failed = 1, 1
	}
	line, err := encodeResult(r.wrong == 0, attempted, r.failed, defs, values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	os.Exit(0)
}

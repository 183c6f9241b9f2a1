package main

import (
	"encoding/json"
	"fmt"
	"math"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, measured as a user of the
// store or the server sees them.
var endToEnd = []metricDef{
	{"throughput_ops_s", "1/s"},
	{"p50_ns", "ns"},
	{"p99_ns", "ns"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run. Every workload prints all of
// them; a layer the workload does not cross reads 0 (see README.md).
var perLayer = []metricDef{
	{"trace.op_ns", "ns"},
	{"self.wire_ns", "ns"},
	{"self.server_ns", "ns"},
	{"self.store_ns", "ns"},
	{"self.core_ns", "ns"},
	{"self.policy_ns", "ns"},
	{"self.remainder_ns", "ns"},
	{"wire.send_ns", "ns"},
	{"wire.wait_ns", "ns"},
	{"server.exec_mean_ns", "ns"},
	{"server.remainder_ns", "ns"},
	{"wire.parse_ns", "ns"},
	{"wire.encode_ns", "ns"},
	{"server.ops_served", "count"},
	{"store.get_ns", "ns"},
	{"store.insert_ns", "ns"},
	{"store.set_ns", "ns"},
	{"store.remove_ns", "ns"},
	{"store.add_ns", "ns"},
	{"store.clear_ns", "ns"},
	{"store.count_ns", "ns"},
	{"store.get_hit_pct", "%"},
	{"policy.plan_ns", "ns"},
	{"policy.done_ns", "ns"},
	{"policy.settle_execs", "count"},
	{"policy.settle_ms", "ms"},
	{"policy.choice.htm-lock", "%"},
	{"policy.choice.htm-swopt-lock", "%"},
	{"policy.choice.swopt-lock", "%"},
	{"policy.choice.lock", "%"},
	{"policy.choice.custom", "%"},
	{"policy.choice.learning", "%"},
	{"core.elision_pct", "%"},
	{"core.attempts_per_exec", "ratio"},
	{"core.mode_share.htm", "%"},
	{"core.mode_share.swopt", "%"},
	{"core.mode_share.lock", "%"},
	{"core.htm_commit_ratio", "ratio"},
	{"core.swopt_commit_ratio", "ratio"},
	{"core.granules", "count"},
	{"locks.hold_mean_ns", "ns"},
	{"snzi.group_wait_mean_ns", "ns"},
	{"core.swopt_retry_mean_ns", "ns"},
	{"tm.aborts_per_kexec.conflict", "1/kexec"},
	{"tm.aborts_per_kexec.capacity", "1/kexec"},
	{"tm.aborts_per_kexec.lockheld", "1/kexec"},
	{"tm.aborts_per_kexec.spurious", "1/kexec"},
	{"tm.aborts_per_kexec.explicit", "1/kexec"},
	{"tm.extensions_per_kexec", "1/kexec"},
	{"tm.cross_shard_per_kexec", "1/kexec"},
	{"tm.abort_work_ns", "ns"},
	{"tm.commits", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"stuck_ops", "count"},
	{"failed_frac", "ratio"},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted uint64               `json:"attempted"`
	Failed    uint64               `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// encodeResult renders the result line with exactly the metrics in defs.
// A metric missing from values, or not a finite number, is a bug in the
// benchmark.
func encodeResult(correct bool, attempted, failed uint64, defs []metricDef, values map[string]float64) ([]byte, error) {
	if len(values) != len(defs) {
		return nil, fmt.Errorf("%d metrics measured, %d defined", len(values), len(defs))
	}
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricOut{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", d.name, v)
		}
		out.Metrics[d.name] = metricOut{v, d.unit}
	}
	return json.Marshal(out)
}

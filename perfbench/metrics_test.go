package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

type benchFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode checks that BENCHMARK.json lists exactly
// the workloads (other than those run by hand) and metrics this program
// runs and prints.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
	}

	var listed []string
	for _, w := range workloads {
		if !w.byHand {
			listed = append(listed, w.name)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Errorf("%d workloads listed, %d run", len(b.Workloads), len(listed))
	}
	for i, w := range b.Workloads {
		checkName(w.Name)
		if i < len(listed) && w.Name != listed[i] {
			t.Errorf("workload %d is %q, program runs %q", i, w.Name, listed[i])
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, names, units, betters []string) {
		if len(names) != len(defs) {
			t.Errorf("%s: %d listed, %d printed", kind, len(names), len(defs))
			return
		}
		for i, d := range defs {
			checkName(names[i])
			if names[i] != d.name || units[i] != d.unit {
				t.Errorf("%s %d: listed %s [%s], printed %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
			if !unitRE.MatchString(units[i]) {
				t.Errorf("%s: bad unit %q", names[i], units[i])
			}
			if betters[i] != "higher" && betters[i] != "lower" {
				t.Errorf("%s: better must be higher or lower", names[i])
			}
		}
	}
	var n, u, bt []string
	for _, m := range b.EndToEnd {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", endToEnd, n, u, bt)
	n, u, bt = nil, nil, nil
	for _, m := range b.PerLayer {
		n, u, bt = append(n, m.Name), append(u, m.Unit), append(bt, m.Better)
	}
	check("per_layer", perLayer, n, u, bt)
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" {
		t.Errorf("paths = %q", b.Paths)
	}
}

func TestEncodeResultNeedsEveryMetric(t *testing.T) {
	values := map[string]float64{"throughput_ops_s": 1, "p50_ns": 2, "p99_ns": 3, "setup_s": 0.5}
	line, err := encodeResult(true, 10, 1, endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	var got resultLine
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 10 || got.Failed != 1 || got.Metrics["p99_ns"] != (metricOut{3, "ns"}) {
		t.Errorf("round trip = %+v", got)
	}
	delete(values, "p99_ns")
	if _, err := encodeResult(true, 10, 1, endToEnd, values); err == nil {
		t.Error("a missing metric was not reported")
	}
}

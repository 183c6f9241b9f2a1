package main

import (
	"math"
	"sort"
	"testing"

	"repro/internal/xrand"
)

// nearestRank is the textbook definition latHist.quantile must match.
func nearestRank(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func TestQuantileIsExact(t *testing.T) {
	rng := xrand.New(7)
	var a, b latHist
	var all []int64
	for i := 0; i < 20000; i++ {
		// Mostly short values, with a tail past the dense range.
		v := int64(rng.Uint64n(2000))
		if rng.Intn(50) == 0 {
			v = denseNS + int64(rng.Uint64n(1<<20))
		}
		all = append(all, v)
		if i%2 == 0 {
			a.record(v)
		} else {
			b.record(v)
		}
	}
	a.merge(&b)
	for _, q := range []float64{0, 0.001, 0.25, 0.5, 0.9, 0.97, 0.98, 0.99, 0.999, 1} {
		if got, want := a.quantile(q), nearestRank(all, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
}

func TestQuantileSmall(t *testing.T) {
	var h latHist
	if h.quantile(0.5) != 0 {
		t.Errorf("empty quantile should be 0")
	}
	for _, v := range []int64{40, 10, 30, 20} {
		h.record(v)
	}
	// Nearest rank of 4 values: p50 is the 2nd, p99 the 4th.
	if got := h.quantile(0.5); got != 20 {
		t.Errorf("p50 = %d, want 20", got)
	}
	if got := h.quantile(0.99); got != 40 {
		t.Errorf("p99 = %d, want 40", got)
	}
}

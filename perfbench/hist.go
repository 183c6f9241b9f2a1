package main

import (
	"math"
	"sort"
)

// denseNS is the latency below which latHist keeps one counter per
// nanosecond. Longer operations are rare (whole-DB operations, scheduler
// stalls) and are kept as individual values, so every quantile is exact.
const denseNS = 1 << 16

// latHist holds every recorded latency exactly: a count per nanosecond
// below denseNS and the raw values above it. It is owned by one goroutine
// while recording; merge after the owners have stopped.
type latHist struct {
	dense [denseNS]uint32
	over  []int64
	n     uint64
}

func (h *latHist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	if ns < denseNS {
		h.dense[ns]++
	} else {
		h.over = append(h.over, ns)
	}
	h.n++
}

// merge adds o's observations to h.
func (h *latHist) merge(o *latHist) {
	for i, c := range o.dense {
		h.dense[i] += c
	}
	h.over = append(h.over, o.over...)
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile: the smallest recorded
// value v such that at least ceil(q·n) observations are ≤ v. It returns 0
// for an empty histogram.
func (h *latHist) quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for v, c := range h.dense {
		seen += uint64(c)
		if seen >= rank {
			return int64(v)
		}
	}
	sort.Slice(h.over, func(i, j int) bool { return h.over[i] < h.over[j] })
	return h.over[rank-seen-1]
}

package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if math.IsInf(s[hi], 1) || lo == hi {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// above counts the values strictly greater than x.
func above(xs []float64, x float64) int {
	n := 0
	for _, v := range xs {
		if v > x {
			n++
		}
	}
	return n
}

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hist is a histogram of non-negative values in buckets 1% wide. The
// benchmark pools reads in it instead of a growing slice of samples: the
// benchmark's own live heap then stays the same size however long it
// runs, so it does not shift the garbage collector's pacing, and with it
// the timings of the program under test, as the run goes on.
type hist struct {
	n, zero int64 // all values; values below 1
	counts  [histBuckets]int64
}

const (
	histGrowth  = 1.01
	histBuckets = 2800 // up to 1.01^2800, about 1.2e12
)

func (h *hist) add(v float64) {
	h.n++
	switch {
	case math.IsInf(v, 1):
		// Counted in n only: ranks past every bucket read +Inf.
	case v < 1:
		h.zero++
	default:
		i := int(math.Log(v) / math.Log(histGrowth))
		h.counts[min(i, histBuckets-1)]++
	}
}

// quantile returns the value at rank q·(n-1), interpolated linearly
// inside its bucket (0 when empty, +Inf when the rank falls among the
// +Inf values).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	if rank < float64(h.zero) {
		return 0
	}
	seen := float64(h.zero)
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if rank < seen+float64(c) {
			lo := math.Pow(histGrowth, float64(i))
			return lo + (lo*histGrowth-lo)*(rank-seen+0.5)/float64(c)
		}
		seen += float64(c)
	}
	return math.Inf(1)
}

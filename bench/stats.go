package main

import "sort"

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: with fewer, the "p75" of a handful of reps is just
// their maximum, a number that moves with a single outlier.
const minBeyond = 10

// rank is the 1-based nearest rank of the per-mille quantile pm over n
// samples: the smallest r with r/n >= pm/1000. Integer arithmetic keeps
// p99 of 1000 samples at rank 990 exactly.
func rank(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// quantile is the nearest-rank per-mille quantile pm of xs; ok is false
// when xs is empty. xs is not modified.
func quantile(xs []float64, pm int) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(pm, len(s))-1], true
}

// median is the nearest-rank median: the lower middle sample when the
// count is even, so every reported value is one that was measured.
func median(xs []float64) (float64, bool) { return quantile(xs, 500) }

// tail is quantile for a tail percentile: ok is false unless at least
// minBeyond samples lie beyond the rank, so a percentile with too few
// samples is reported absent rather than as its sample maximum.
func tail(xs []float64, pm int) (float64, bool) {
	if len(xs)-rank(pm, len(xs)) < minBeyond {
		return 0, false
	}
	return quantile(xs, pm)
}

package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so quantile must sort
	}
	return xs
}

func TestQuantileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n, pm int
		want  float64
	}{
		{1, 500, 1},
		{2, 500, 1}, // lower middle: a measured sample, not an average
		{3, 500, 2},
		{4, 750, 3},
		{10, 900, 9},
		{40, 750, 30},
		{1000, 990, 990},
		{7, 1000, 7},
		{7, 0, 1},
	} {
		got, ok := quantile(seq(tc.n), tc.pm)
		if !ok || got != tc.want {
			t.Errorf("quantile(1..%d, %d‰) = %v, %v; want %v", tc.n, tc.pm, got, ok, tc.want)
		}
	}
	if _, ok := quantile(nil, 500); ok {
		t.Error("quantile of no samples reported a value")
	}
	if _, ok := median(nil); ok {
		t.Error("median of no samples reported a value")
	}
}

// TestTailNeedsTenBeyond pins the rule for reporting a tail percentile:
// at least ten samples must lie beyond its rank, otherwise it is absent.
func TestTailNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n, pm int
		ok    bool
	}{
		{40, 750, true}, // rank 30, 10 beyond: the benchmark's minimum reps
		{39, 750, false},
		{2, 750, false}, // a smoke run's p75
		{1000, 990, true},
		{999, 990, false},
		{1600, 990, true},
		{20, 500, true},
		{19, 500, false},
	} {
		v, ok := tail(seq(tc.n), tc.pm)
		if ok != tc.ok {
			t.Errorf("tail(%d samples, %d‰) ok = %v, want %v", tc.n, tc.pm, ok, tc.ok)
		}
		if !ok && v != 0 {
			t.Errorf("tail(%d samples, %d‰) reported %v alongside absent", tc.n, tc.pm, v)
		}
		if ok && v != float64(rank(tc.pm, tc.n)) {
			t.Errorf("tail(%d samples, %d‰) = %v, want rank %d", tc.n, tc.pm, v, rank(tc.pm, tc.n))
		}
	}
}

func TestReportAbsentPercentile(t *testing.T) {
	r := newReport("w")
	r.putTail("p75", unitMs, seq(2), 750)
	m := r.Metrics["p75"]
	if m.Value != nil || m.Unit != unitMs || m.N != 2 {
		t.Errorf("too-few-samples p75 = %+v, want absent value with unit and n", m)
	}
}

package main

import (
	"testing"

	"cosim/internal/core"
	"cosim/internal/harness"
)

// cleanResult is a correct run: traffic flowed, nothing was corrupted,
// and every generated packet is accounted for.
func cleanResult() *harness.Result {
	return &harness.Result{
		Params:    harness.Params{FifoDepth: 8},
		Generated: 400, Offered: 398, InDrops: 2,
		Dequeued: 396, Forwarded: 396, Received: 396,
		CoStats:           core.Stats{Transfers: 792, Stops: 793},
		GuestInstructions: 41980,
	}
}

func TestChecksCountOneFailedOp(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(r *harness.Result)
	}{
		{"clean", func(*harness.Result) {}},
		{"corrupted", func(r *harness.Result) { r.Corrupted = 1 }},
		{"bad content", func(r *harness.Result) { r.BadContent = 1 }},
		{"misrouted", func(r *harness.Result) { r.Misrouted = 1 }},
		{"nothing received", func(r *harness.Result) { r.Received = 0 }},
		{"generated not conserved", func(r *harness.Result) { r.InDrops = 3 }},
		{"forwarded beyond dequeued", func(r *harness.Result) { r.Forwarded = 397 }},
		{"dequeued beyond offered", func(r *harness.Result) { r.Dequeued, r.Forwarded = 399, 399 }},
		{"too many left queued", func(r *harness.Result) { r.Dequeued, r.Forwarded, r.Received = 365, 365, 365 }},
		{"signature drift", func(r *harness.Result) { r.Forwarded, r.Received = 395, 395 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tl tally
			clean := cleanResult()
			tl.add("w", true, outcome(clean.Metrics(), clean.Received), check(clean))
			bad := cleanResult()
			tc.mutate(bad)
			tl.add("w", true, outcome(bad.Metrics(), bad.Received), check(bad))

			wantFailed := 1
			if tc.name == "clean" {
				wantFailed = 0
			}
			if tl.attempted != 2 || tl.failed != wantFailed {
				t.Fatalf("attempted %d failed %d, want 2 and %d (reasons %q)", tl.attempted, tl.failed, wantFailed, tl.reasons)
			}
			r := newReport("w")
			r.putTally(&tl)
			if got := *r.Metrics["fail_frac"].Value; got != float64(wantFailed)/2 {
				t.Errorf("fail_frac = %v, want %v", got, float64(wantFailed)/2)
			}
		})
	}
}

// TestDriftIsNotFailureWhenNotDeterministic: a host-dependent workload
// reports its distinct outcomes instead of failing them.
func TestDriftIsNotFailureWhenNotDeterministic(t *testing.T) {
	var tl tally
	for _, fwd := range []uint64{396, 395, 396} {
		r := cleanResult()
		r.Forwarded, r.Received = fwd, fwd
		tl.add("w", false, outcome(r.Metrics(), r.Received), check(r))
	}
	if tl.failed != 0 || tl.distinct() != 2 {
		t.Errorf("failed %d distinct %d, want 0 and 2", tl.failed, tl.distinct())
	}
}

// TestDeterminismIsPerKind: ops of different kinds (cosimd-mix's specs)
// are each compared with their own first outcome.
func TestDeterminismIsPerKind(t *testing.T) {
	var tl tally
	a, b := cleanResult(), cleanResult()
	b.Forwarded, b.Received = 300, 300
	for _, r := range []*harness.Result{a, b, a, b} {
		kind := "a"
		if r == b {
			kind = "b"
		}
		tl.add(kind, true, outcome(r.Metrics(), r.Received), check(r))
	}
	if tl.failed != 0 || tl.distinct() != 2 {
		t.Errorf("failed %d distinct %d, want 0 and 2", tl.failed, tl.distinct())
	}
}

func TestCheckSession(t *testing.T) {
	m := cleanResult().Metrics()
	for _, tc := range []struct {
		state string
		m     *harness.Metrics
		ok    bool
	}{
		{"done", &m, true},
		{"failed", &m, false},
		{"done", nil, false},
		{"done", &harness.Metrics{Generated: 40}, false},
		{"done", &harness.Metrics{Generated: 40, Forwarded: 41}, false},
	} {
		if got := checkSession(tc.state, tc.m) == ""; got != tc.ok {
			t.Errorf("checkSession(%s, %+v) passed = %v, want %v", tc.state, tc.m, got, tc.ok)
		}
	}
}

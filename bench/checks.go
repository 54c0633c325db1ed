package main

import (
	"fmt"

	"cosim/internal/harness"
)

// A signature is a run's simulated outcome. A change that only speeds
// the simulator up must leave it identical.
type signature struct {
	Forwarded, Received, Messages, Transfers, Stops, Instructions uint64
}

// outcome is the signature of a run record. Received is passed apart
// because harness.Metrics, which cosimd serves, does not carry it.
func outcome(m harness.Metrics, received uint64) signature {
	return signature{
		Forwarded: m.Forwarded, Received: received, Messages: m.Messages,
		Transfers: m.Transfers, Stops: m.Stops, Instructions: m.GuestInstr,
	}
}

// check returns why res is not a correct run of the router case study,
// or "" when it is. No errors are injected, so nothing may be corrupted,
// and every generated packet is accounted for.
func check(res *harness.Result) string {
	switch {
	case res.Received == 0:
		return "no packet received"
	case res.Corrupted != 0 || res.BadContent != 0 || res.Misrouted != 0:
		return fmt.Sprintf("corrupted %d, bad content %d, misrouted %d", res.Corrupted, res.BadContent, res.Misrouted)
	case res.Generated != res.Offered+res.InDrops:
		return fmt.Sprintf("generated %d != offered %d + input drops %d", res.Generated, res.Offered, res.InDrops)
	case res.Forwarded > res.Dequeued || res.Dequeued > res.Offered:
		return fmt.Sprintf("not forwarded %d <= dequeued %d <= offered %d", res.Forwarded, res.Dequeued, res.Offered)
	case res.Offered-res.Dequeued > uint64(4*res.Params.FifoDepth):
		// At most the four input queues can still hold packets.
		return fmt.Sprintf("%d packets left queued, more than 4 queues of %d", res.Offered-res.Dequeued, res.Params.FifoDepth)
	}
	return ""
}

// checkSession is check for a cosimd session, which reports only the
// harness.Metrics record: the session must be done and its traffic
// counts consistent.
func checkSession(state string, m *harness.Metrics) string {
	switch {
	case state != "done":
		return "session " + state
	case m == nil:
		return "done session without metrics"
	case m.Forwarded == 0:
		return "no packet forwarded"
	case m.Forwarded > m.Generated:
		return fmt.Sprintf("forwarded %d > generated %d", m.Forwarded, m.Generated)
	}
	return ""
}

// A tally counts a workload's ops and their failures. An op fails on
// an error, a failed check, or, when deterministic, an outcome other
// than that of the first passing op of its kind.
type tally struct {
	attempted, failed int
	reasons           []string // the first few failures
	first             map[string]signature
	outcomes          map[string]map[signature]bool
}

// add counts an op of the given kind with its outcome and check result
// (see check); it reports whether the op passed.
func (t *tally) add(kind string, deterministic bool, sig signature, reason string) bool {
	if reason == "" {
		if t.first == nil {
			t.first, t.outcomes = map[string]signature{}, map[string]map[signature]bool{}
		}
		if t.outcomes[kind] == nil {
			t.outcomes[kind] = map[signature]bool{}
		}
		t.outcomes[kind][sig] = true
		first, seen := t.first[kind]
		switch {
		case !seen:
			t.first[kind] = sig
		case deterministic && sig != first:
			reason = fmt.Sprintf("%s: outcome %+v differs from the first run's %+v", kind, sig, first)
		}
	}
	if reason != "" {
		t.fail(reason)
		return false
	}
	t.attempted++
	return true
}

// fail counts an op that failed.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, reason)
	}
}

// distinct is the number of distinct outcomes among ops that passed
// their checks, summed over kinds of op.
func (t *tally) distinct() int {
	n := 0
	for _, sigs := range t.outcomes {
		n += len(sigs)
	}
	return n
}

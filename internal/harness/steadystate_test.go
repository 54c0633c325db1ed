package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// TestSteadyStateAllocatesNothing: once a run is set up, simulating
// longer allocates nothing more, on every scheme, over the ring and
// tcp. A 4 ms run must allocate exactly what a 2 ms run does, counted
// over Kernel.Run alone (Result.Allocs).
//
// Result.Allocs counts the whole process, so work outside the run adds
// to it. Each run's teardown stops its watchdogs' timers (they tick
// for up to 2 s otherwise, inside later runs), each run starts once an
// earlier run's goroutines have wound down, and the collector is held
// off (a collection empties the sync.Pools the protocol buffers come
// from and starts the runtime's clean-ups). What is left, such as a
// new goroutine for a timer of the test binary itself, can only add,
// never take away, so each length is measured as the least count of
// three runs: a stray allocation must land in all three to show.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocation; counts unstable")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cases := []struct {
		scheme Scheme
		cpus   int
		dmi    bool
	}{
		{GDBWrapper, 1, false},
		{GDBKernel, 1, false},
		{GDBKernel, 2, false},
		{DriverKernel, 1, false},
		{DriverKernel, 2, true},
	}
	for _, tr := range []core.Transport{core.TransportRing, core.TransportTCP} {
		for _, c := range cases {
			name := fmt.Sprintf("%v/cpus=%d/dmi=%v/%s", c.scheme, c.cpus, c.dmi, tr.Name())
			t.Run(name, func(t *testing.T) {
				runtime.GC()
				allocs := func(d sim.Time) uint64 {
					least := ^uint64(0)
					for range 3 {
						settledGoroutines() // an earlier run's goroutines have wound down
						res, err := Run(Params{Scheme: c.scheme, Transport: tr, CPUs: c.cpus, DMI: c.dmi, SimTime: d, Seed: 1})
						if err != nil {
							t.Fatal(err)
						}
						least = min(least, res.Allocs)
					}
					return least
				}
				if a2, a4 := allocs(2*sim.MS), allocs(4*sim.MS); a4 != a2 {
					t.Errorf("%s: a 4 ms run allocates %d, a 2 ms run %d: %+d in the steady state, want 0", name, a4, a2, int64(a4)-int64(a2))
				}
			})
		}
	}
}

// TestPacketPoolBalance checks packet conservation through the run's
// packet pool on every scheme: when a run ends, the pooled packets not
// yet released are exactly those the router still holds, a broadcast
// counted once. The traffic corrupts and broadcasts packets and
// saturates the input queues, so the consumers, the checksum drop, a
// full input queue and a broadcast's last copy all release packets.
// (The consumers drain the output queues as they fill, so a full one
// is left to TestRouterPoolBalance in internal/router.)
func TestPacketPoolBalance(t *testing.T) {
	for _, c := range []struct {
		scheme Scheme
		cpus   int
		dmi    bool
	}{
		{GDBWrapper, 1, false},
		{GDBKernel, 2, false},
		{DriverKernel, 1, false},
		{DriverKernel, 2, true},
	} {
		t.Run(fmt.Sprintf("%v/cpus=%d/dmi=%v", c.scheme, c.cpus, c.dmi), func(t *testing.T) {
			t.Parallel()
			res, err := Run(Params{
				Scheme: c.scheme, CPUs: c.cpus, DMI: c.dmi, Transport: core.TransportRing,
				SimTime: sim.MS, Delay: 2 * sim.US, FifoDepth: 2,
				ErrorRate: 0.2, MulticastRate: 0.3, Seed: 3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.PacketsLive != res.PacketsHeld {
				t.Errorf("%d pooled packets live, the router holds %d", res.PacketsLive, res.PacketsHeld)
			}
			if res.Corrupted == 0 || res.InDrops == 0 || res.Copies <= res.Forwarded {
				t.Errorf("corrupted %d, input drops %d, copies %d for %d forwarded: want every release path taken",
					res.Corrupted, res.InDrops, res.Copies, res.Forwarded)
			}
			if res.BadContent != 0 || res.Misrouted != 0 {
				t.Errorf("consumers saw %d bad and %d misrouted packets", res.BadContent, res.Misrouted)
			}
		})
	}
}

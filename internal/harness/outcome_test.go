package harness

import (
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// gdbOutcome is the part of a GDB-scheme run that depends on spec and
// seed only: the guest stops at a breakpoint for every transfer and the
// kernel holds simulated time while a stop is outstanding, so neither
// host speed nor the coupling's wall-clock pacing moves it.
type gdbOutcome struct {
	Forwarded, Received, Transfers, Stops, Instructions uint64
}

// TestGDBOutcomesPinned pins the seed-1 outcome of a GDB-Kernel 2-CPU
// ring run and a GDB-Wrapper tcp run. The expected values were taken
// from the last build whose kernel schemes ran a 100ns clock, so they
// also show that polling on the clock's edge grid instead of running
// the clock moved no simulated outcome.
func TestGDBOutcomesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want gdbOutcome
	}{
		{"gdb-kernel-2cpu-ring", Params{
			Scheme: GDBKernel, CPUs: 2, Transport: core.TransportRing,
			SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1,
		}, gdbOutcome{3196, 3196, 6392, 6394, 338789}},
		{"gdb-wrapper-tcp", Params{
			Scheme: GDBWrapper, Transport: core.TransportTCP,
			SimTime: 2 * sim.MS, Delay: 20 * sim.US, Seed: 1,
		}, gdbOutcome{396, 396, 792, 793, 41980}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Run(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			got := gdbOutcome{res.Forwarded, res.Received, res.CoStats.Transfers, res.CoStats.Stops, res.GuestInstructions}
			if got != tc.want {
				t.Fatalf("outcome %+v, want %+v", got, tc.want)
			}
		})
	}
}

package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// TestGDBWrapperJournalPinned pins the whole transfer history of the
// seed-1 GDB-Wrapper run of TestGDBOutcomesPinned, byte for byte: every
// transfer's time, port, size and cycle stamp. The lock-step wrapper
// holds simulated time on every exchange, so the journal depends on
// spec and seed only and must be the same over every transport.
func TestGDBWrapperJournalPinned(t *testing.T) {
	const want = "817b4d850f08d98e2a21d337834392bae72fad6207dd6deee9ff5976d31f765d"
	for _, tr := range []core.Transport{core.TransportTCP, core.TransportRing, core.TransportPipe} {
		t.Run(tr.Name(), func(t *testing.T) {
			jl := core.NewJournal(0)
			if _, err := Run(Params{
				Scheme: GDBWrapper, Transport: tr,
				SimTime: 2 * sim.MS, Delay: 20 * sim.US, Seed: 1, Journal: jl,
			}); err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := jl.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(csv.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("journal (%d entries) SHA-256 %s, want %s", jl.Len(), got, want)
			}
		})
	}
}

// TestGDBKernelJournalPinned pins the whole transfer history of the
// seed-1 GDB-Kernel 2-CPU run of TestGDBOutcomesPinned, byte for byte.
// The kernel services every stop exactly at its skew bound, so the
// journal depends on spec and seed only and must be the same over
// every transport.
func TestGDBKernelJournalPinned(t *testing.T) {
	const want = "2f4efb2bfd774854710fb1a32be68d680dfaf21f1263ee06c4cb02b782d3c055"
	for _, tr := range []core.Transport{core.TransportTCP, core.TransportRing, core.TransportPipe} {
		t.Run(tr.Name(), func(t *testing.T) {
			jl := core.NewJournal(0)
			if _, err := Run(Params{
				Scheme: GDBKernel, CPUs: 2, Transport: tr,
				SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1, Journal: jl,
			}); err != nil {
				t.Fatal(err)
			}
			var csv bytes.Buffer
			if err := jl.WriteCSV(&csv); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(csv.Bytes())
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("journal (%d entries) SHA-256 %s, want %s", jl.Len(), got, want)
			}
		})
	}
}

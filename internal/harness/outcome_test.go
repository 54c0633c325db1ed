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
// ring run and a GDB-Wrapper tcp run. The wrapper's values were taken
// from the last build whose kernel schemes ran a 100ns clock, so they
// also show that polling on the clock's edge grid instead of running
// the clock moved no simulated outcome. GDB-Kernel's are those of its
// event-driven service, each stop served at its own cycle stamp.
func TestGDBOutcomesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
		want gdbOutcome
	}{
		{"gdb-kernel-2cpu-ring", Params{
			Scheme: GDBKernel, CPUs: 2, Transport: core.TransportRing,
			SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1,
		}, gdbOutcome{3196, 3196, 6394, 6394, 338997}},
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

// TestGDBKernelOutcomeSameOverEveryTransport: the GDB-Kernel 2-CPU run
// that TestGDBOutcomesPinned pins over the ring, where the stubs run on
// the kernel's goroutine, has the same outcome over pipe and tcp, where
// each stub runs on its own.
func TestGDBKernelOutcomeSameOverEveryTransport(t *testing.T) {
	p := Params{
		Scheme: GDBKernel, CPUs: 2, Transport: core.TransportRing,
		SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1,
	}
	outcome := func(t *testing.T, p Params) gdbOutcome {
		t.Helper()
		res, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		return gdbOutcome{res.Forwarded, res.Received, res.CoStats.Transfers, res.CoStats.Stops, res.GuestInstructions}
	}
	want := outcome(t, p)
	for _, tr := range []core.Transport{core.TransportPipe, core.TransportTCP} {
		t.Run(tr.Name(), func(t *testing.T) {
			p.Transport = tr
			if got := outcome(t, p); got != want {
				t.Fatalf("outcome %+v, want the ring's %+v", got, want)
			}
		})
	}
}

// TestGDBRunsClampNoStop: on the runs TestGDBOutcomesPinned pins, no
// stop's cycle stamp maps behind the simulated time it is served at,
// so cosim.clamped_stops reads 0. A clamp would serve a stop later than
// its own time: a guest ahead of its clock.
func TestGDBRunsClampNoStop(t *testing.T) {
	for _, p := range []Params{
		{Scheme: GDBKernel, CPUs: 2, Transport: core.TransportRing, SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1},
		{Scheme: GDBWrapper, Transport: core.TransportTCP, SimTime: 2 * sim.MS, Delay: 20 * sim.US, Seed: 1},
	} {
		t.Run(p.Scheme.String(), func(t *testing.T) {
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if n := counter(t, res.Counters, "cosim.clamped_stops"); n != 0 {
				t.Errorf("cosim.clamped_stops = %d over %d stops, want 0", n, res.CoStats.Stops)
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
// The kernel services every stop at the simulated time of its cycle
// stamp, so the journal depends on spec and seed only and must be the
// same over every transport.
func TestGDBKernelJournalPinned(t *testing.T) {
	const want = "28e1d7efb868dea18a41c0342fa302b9a2aed82ac4268c51f81039d49f473a18"
	for _, tr := range []core.Transport{core.TransportTCP, core.TransportRing, core.TransportPipe} {
		t.Run(tr.Name(), func(t *testing.T) {
			_, sum := journalRun(t, Params{
				Scheme: GDBKernel, CPUs: 2, Transport: tr,
				SimTime: 4 * sim.MS, Delay: 5 * sim.US, Seed: 1,
			})
			if sum != want {
				t.Fatalf("journal SHA-256 %s, want %s", sum, want)
			}
		})
	}
}

// journalRun runs p with a journal and returns the run's outcome and
// the SHA-256 of its journal.
func journalRun(t *testing.T, p Params) (gdbOutcome, string) {
	t.Helper()
	p.Journal = core.NewJournal(0)
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Simulated != p.SimTime {
		t.Fatalf("run ended at %v, want %v", res.Simulated, p.SimTime)
	}
	return gdbOutcome{res.Forwarded, res.Received, res.CoStats.Transfers, res.CoStats.Stops, res.GuestInstructions},
		journalSum(t, p.Journal)
}

// journalSum returns the SHA-256 of a journal's CSV form.
func journalSum(t *testing.T, jl *core.Journal) string {
	t.Helper()
	var csv bytes.Buffer
	if err := jl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv.Bytes())
	return hex.EncodeToString(sum[:])
}

package harness

import (
	"errors"
	"fmt"
	"testing"

	"cosim/internal/core"
	"cosim/internal/router"
	"cosim/internal/sim"
)

// counter fails the test if the named counter is absent, and returns it.
func counter(t *testing.T, c map[string]uint64, name string) uint64 {
	t.Helper()
	v, ok := c[name]
	if !ok {
		t.Fatalf("counter %q missing from snapshot (have %d counters)", name, len(c))
	}
	return v
}

// TestObsCountersConsistentAcrossSchemes runs the router case study
// under all three schemes and cross-checks the obs snapshot against the
// run's own ground truth: the substrate counters must be present and
// non-zero everywhere, the GDB schemes' RSP round trips must be one
// transaction per variable transfer (plus, for the GDB-Wrapper, one
// qRun per clock cycle, §2's per-cycle IPC cost), and the
// Driver-Kernel's message counters must reconcile exactly with the
// transfer journal.
func TestObsCountersConsistentAcrossSchemes(t *testing.T) {
	for _, s := range Schemes {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			t.Parallel()
			jl := core.NewJournal(0)
			res, err := Run(Params{
				Scheme:    s,
				Transport: core.TransportPipe,
				SimTime:   sim.MS,
				Seed:      7,
				Journal:   jl,
			})
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters
			if len(c) == 0 {
				t.Fatal("run produced an empty counter snapshot")
			}

			// Substrate metrics every scheme must populate.
			for _, name := range []string{
				"iss.instructions", "iss.cycles",
				"sim.cycles", "sim.activations", "sim.delta_cycles",
			} {
				if counter(t, c, name) == 0 {
					t.Errorf("counter %q = 0, want > 0", name)
				}
			}
			if got := counter(t, c, "iss.instructions"); got != res.GuestInstructions {
				t.Errorf("iss.instructions = %d, Result.GuestInstructions = %d", got, res.GuestInstructions)
			}

			cycles := counter(t, c, "sim.cycles")
			switch s {
			case GDBWrapper, GDBKernel:
				// The wrapper polls once per clock cycle until the guest
				// exits or fails (it never does here). GDB-Kernel has no
				// per-cycle poll: it serves each stop once.
				polls := counter(t, c, "cosim.polls")
				stops := counter(t, c, "cosim.stops")
				if s == GDBWrapper && (polls == 0 || polls > cycles) {
					t.Errorf("cosim.polls = %d, want in (0, sim.cycles=%d]", polls, cycles)
				}
				if s == GDBKernel && (stops == 0 || polls != stops) {
					t.Errorf("cosim.polls = %d, want cosim.stops = %d, above 0", polls, stops)
				}
				hits := counter(t, c, "cosim.breakpoint_hits") + counter(t, c, "cosim.watchpoint_hits")
				if stops != hits {
					t.Errorf("cosim.stops = %d, breakpoint+watchpoint hits = %d", stops, hits)
				}
				// Both engine schemes journal exactly the variable
				// transfers they count.
				transfers := counter(t, c, "cosim.transfers_to_sc") + counter(t, c, "cosim.transfers_to_iss")
				if transfers != uint64(jl.Len()) {
					t.Errorf("transfer counters = %d, journal entries = %d", transfers, jl.Len())
				}
				// Stop replies expedite the PC and cycle counter, so a
				// stop costs no transaction of its own. Past the set-up
				// (the no-ack handshake and one Z packet per binding),
				// every GDB-Kernel round trip is a variable transfer;
				// the wrapper adds one qRun per cycle in which the guest
				// is not waiting for data, and each of its stops ended one.
				setup := uint64(1 + len(router.GDBBindingsPrefixed("")))
				rts := counter(t, c, "rsp.round_trips")
				switch {
				case s == GDBKernel && rts != transfers+setup:
					t.Errorf("rsp.round_trips = %d, want transfers+setup = %d+%d", rts, transfers, setup)
				case s == GDBWrapper && rts < stops+transfers+setup:
					t.Errorf("rsp.round_trips = %d < stops+transfers+setup = %d; transactions unaccounted",
						rts, stops+transfers+setup)
				case s == GDBWrapper && rts > polls+transfers+setup:
					t.Errorf("rsp.round_trips = %d > polls+transfers+setup = %d; a stop cost an extra transaction",
						rts, polls+transfers+setup)
				}
			case DriverKernel:
				// Raw inbound messages split exactly into WRITEs and
				// READs; the journal records each WRITE received and
				// each DATA reply served, nothing else.
				msgs := counter(t, c, "driver.messages")
				writes := counter(t, c, "driver.msgs_write")
				reads := counter(t, c, "driver.msgs_read")
				replies := counter(t, c, "driver.data_replies")
				if msgs != writes+reads {
					t.Errorf("driver.messages = %d, msgs_write+msgs_read = %d", msgs, writes+reads)
				}
				if writes+replies != uint64(jl.Len()) {
					t.Errorf("msgs_write+data_replies = %d, journal entries = %d", writes+replies, jl.Len())
				}
				if got := counter(t, c, "driver.interrupts"); got != res.CoStats.IntsNotified {
					t.Errorf("driver.interrupts = %d, CoStats.IntsNotified = %d", got, res.CoStats.IntsNotified)
				}
			}
		})
	}
}

// TestDecodeCacheAccounting checks the ISS's decode-cache counters
// against its retired instructions. Every instruction a guest executes
// is a hit or a miss and retires, so the two sum to iss.instructions
// exactly, on every scheme, with DMI or without: the GDB stubs' breakpoints
// are the CPU's, and a stop at one fetches nothing.
func TestDecodeCacheAccounting(t *testing.T) {
	for _, p := range []Params{
		{Scheme: DriverKernel, CPUs: 1},
		{Scheme: DriverKernel, CPUs: 2},
		{Scheme: DriverKernel, CPUs: 1, DMI: true},
		{Scheme: DriverKernel, CPUs: 2, DMI: true},
		{Scheme: GDBWrapper, CPUs: 1},
		{Scheme: GDBKernel, CPUs: 1},
		{Scheme: GDBKernel, CPUs: 2},
	} {
		p.Transport, p.SimTime, p.Seed = core.TransportRing, 500*sim.US, 5
		t.Run(fmt.Sprintf("%v/cpus=%d/dmi=%v", p.Scheme, p.CPUs, p.DMI), func(t *testing.T) {
			t.Parallel()
			res, err := Run(p)
			if err != nil {
				t.Fatal(err)
			}
			c := res.Counters
			instr := counter(t, c, "iss.instructions")
			fetched := counter(t, c, "iss.decode_cache_hits") + counter(t, c, "iss.decode_cache_misses")
			if instr == 0 {
				t.Fatal("no instructions retired")
			}
			if fetched != instr {
				t.Errorf("hits+misses = %d, iss.instructions = %d; want equal", fetched, instr)
			}
			if p.Scheme != DriverKernel && res.CoStats.Stops == 0 {
				t.Error("no stops served")
			}
		})
	}
}

// failWriter errors after the first write, like a full disk mid-trace.
type failWriter struct{ n int }

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errDiskFull
	}
	return len(p), nil
}

// TestTraceErrPropagated guards the fix for the swallowed VCD writer
// error: a tracer that fails mid-run must surface through
// Result.TraceErr (and Metrics.TraceErr), not vanish.
func TestTraceErrPropagated(t *testing.T) {
	res, err := Run(Params{
		Scheme:    GDBKernel,
		Transport: core.TransportPipe,
		SimTime:   200 * sim.US,
		Seed:      3,
		Trace:     &failWriter{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceErr == nil {
		t.Fatal("Result.TraceErr = nil, want the tracer's write error")
	}
	if !errors.Is(res.TraceErr, errDiskFull) {
		t.Errorf("Result.TraceErr = %v, want wrapped errDiskFull", res.TraceErr)
	}
	if m := res.Metrics(); m.TraceErr == "" {
		t.Error("Metrics.TraceErr empty, want the error string")
	}
}

// TestNilTransportReportsPipe: a run with no transport uses the pipe
// default that Params.WithDefaults fills in, and its metrics name it
// and carry its per-backend counters.
func TestNilTransportReportsPipe(t *testing.T) {
	res, err := Run(Params{Scheme: GDBKernel, SimTime: 200 * sim.US, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics().Transport; got != "pipe" {
		t.Errorf("Metrics().Transport = %q, want pipe", got)
	}
	if counter(t, res.Counters, "transport.pipe.pairs") == 0 {
		t.Error("transport.pipe.pairs = 0, want > 0")
	}
}

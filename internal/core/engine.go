package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/obs"
	"cosim/internal/sim"
)

// Stats counts co-simulation activity for the benchmark harness.
type Stats struct {
	Transfers    uint64 // variable/message data transfers
	Stops        uint64 // breakpoint stops handled (GDB schemes)
	Polls        uint64 // wrapper: clock cycles; Driver-Kernel: grants, one per time point visited; GDB-Kernel: stop services
	Messages     uint64 // protocol messages handled (Driver-Kernel)
	IntsNotified uint64 // interrupts sent to the driver
	DMIHits      uint64 // guest accesses served by direct memory windows
	DMIMisses    uint64 // windowed-port accesses that fell back to messages
}

// engineObs holds the GDB-scheme hot-path metrics, pre-resolved at
// attach time so every update is a nil check plus an atomic add. All
// fields are nil (no-ops) when no registry is configured.
type engineObs struct {
	polls     *obs.Counter
	stops     *obs.Counter
	breakHits *obs.Counter
	watchHits *obs.Counter
	toSC      *obs.Counter // iss->sc variable transfers
	toISS     *obs.Counter // sc->iss variable pokes
	// skewWaits and skewWaitNS count and time GDB-Kernel's waits for
	// the stop that ends each resume (named when they were skew waits).
	// skewWaits counts every wait; skewWaitNS times a sample of them
	// (waitStop).
	skewWaits  *obs.Counter
	skewWaitNS *obs.Histogram
	waits      sampledWait
	// skewTimeouts counts stop waits abandoned after the wall timeout.
	skewTimeouts *obs.Counter
	// clampedStops counts stop stamps served at now because their own
	// time lay behind it (guestClock.notBefore); it reads 0 on a sound
	// run.
	clampedStops *obs.Counter
	// reg is the registry the handles were resolved against; Publish
	// adds the RSP totals to it.
	reg *obs.Registry
}

func (o *engineObs) init(r *obs.Registry) {
	o.reg = r
	o.polls = r.Counter("cosim.polls")
	o.stops = r.Counter("cosim.stops")
	o.breakHits = r.Counter("cosim.breakpoint_hits")
	o.watchHits = r.Counter("cosim.watchpoint_hits")
	o.toSC = r.Counter("cosim.transfers_to_sc")
	o.toISS = r.Counter("cosim.transfers_to_iss")
	o.skewWaits = r.Counter("cosim.skew_waits")
	o.skewWaitNS = r.Histogram("cosim.skew_wait_ns")
	o.skewTimeouts = r.Counter("cosim.skew_wait_timeouts")
	o.clampedStops = r.Counter("cosim.clamped_stops")
}

// stopWaitSample is the rate at which GDB-Kernel times its waits for
// a stop, and Driver-Kernel its reads of a channel's bytes: one in 16.
// Timing a wait reads the wall clock twice, at ≈ 110 to 270 ns a read
// on the 2-CPU test hosts, against a whole stop service of 3–5 µs in
// process. Each sample is scaled by the rate, so
// cosim.skew_wait_ns's sum still estimates the total wait, but a
// coarse one: the waits have a long tail that a sample can miss, and
// on 4 ms 2-CPU ring runs (6 396 waits) the estimate came to 65–99 %
// of the exact total.
const stopWaitSample = 16

// sampledWait times one in stopWaitSample of a series of waits, as a
// sample standing for all of them: the first, the 17th, ...
type sampledWait struct{ n uint64 }

// start counts a wait and, if it is sampled, starts timing it into h.
func (s *sampledWait) start(h *obs.Histogram) obs.Span {
	s.n++
	if s.n%stopWaitSample != 1 {
		return obs.Span{}
	}
	return h.Sample(stopWaitSample)
}

// waitStop counts a wait for a stop and starts timing it if it is
// sampled.
func (o *engineObs) waitStop() obs.Span {
	o.skewWaits.Inc()
	return o.waits.start(o.skewWaitNS)
}

// gdbEngine is the breakpoint/variable-transfer machinery shared by the
// GDB-Wrapper and GDB-Kernel schemes.
type gdbEngine struct {
	k       *sim.Kernel
	cl      *gdb.Client
	byAddr  map[uint32]*binding
	byWatch map[uint32]*binding // watch-mode bindings, keyed by variable address

	// clock maps the guest's cycle stamps to simulated time. The
	// lock-step wrapper's is untimed (period 0): its timing is implicit
	// in the per-cycle quantum.
	clock guestClock

	// waiting is the binding whose iss_out port the stopped ISS needs
	// data for; nil when the ISS is runnable.
	waiting *binding

	// continues is set by GDB-Kernel, whose ISS free-runs between stops:
	// each variable transfer also resumes it, in one write where the
	// client can (gdb.Client.ReadMemoryContinue/WriteMemoryContinue),
	// and returns the stop that ends the resume. The wrapper steps the
	// ISS with qRun and transfers alone.
	continues bool

	exited bool
	err    error
	stats  Stats
	obs    engineObs

	// journal, when set, records every transfer.
	journal    *Journal
	schemeName string
}

// errf builds a scheme error prefixed with the scheme's canonical name
// ("gdb-kernel: ..." / "gdb-wrapper: ...") so failures in a mixed run
// identify the scheme that raised them.
func (e *gdbEngine) errf(format string, args ...any) error {
	return fmt.Errorf("%s: "+format, append([]any{any(e.schemeName)}, args...)...)
}

// attach connects the engine to the ISS stub over conn, resolves the
// bindings against the guest image and sets their breakpoints.
func (e *gdbEngine) attach(name string, k *sim.Kernel, conn io.ReadWriter, im *asm.Image, period sim.Time, opts CommonOptions, bindings []VarBinding) (err error) {
	e.schemeName, e.k, e.journal = name, k, opts.Journal
	e.obs.init(opts.Obs)
	e.clock = guestClock{k: k, period: period, clamped: e.obs.clampedStops}
	if e.cl, err = gdb.NewClient(conn); err != nil {
		return e.errf("attach: %w", err)
	}
	if e.byAddr, e.byWatch, err = resolveBindings(k, im, bindings); err != nil {
		return err
	}
	return e.installBreakpoints()
}

// Name returns the scheme's canonical name.
func (e *gdbEngine) Name() string { return e.schemeName }

// Detach implements Scheme. The ISS only runs while the engine drives
// it (a transfer's resume on GDB-Kernel, a quantum on the wrapper), so
// there is nothing to quiesce.
func (e *gdbEngine) Detach() {}

// Client exposes the underlying RSP client (for tests and tools).
func (e *gdbEngine) Client() *gdb.Client { return e.cl }

// Stats returns co-simulation activity counters.
func (e *gdbEngine) Stats() Stats { return e.stats }

// Err returns the first co-simulation error, if any.
func (e *gdbEngine) Err() error { return e.err }

// Exited reports whether the guest program has terminated.
func (e *gdbEngine) Exited() bool { return e.exited }

// Publish adds the RSP transport totals to the engine's registry.
// Counters accumulate, so multi-CPU configurations sum across engines.
func (e *gdbEngine) Publish() {
	r, st := e.obs.reg, e.cl.Stats()
	r.Counter("rsp.round_trips").Add(st.RoundTrips)
	r.Counter("rsp.packets_sent").Add(st.PacketsSent)
	r.Counter("rsp.packets_recv").Add(st.PacketsRecv)
	r.Counter("rsp.bytes_sent").Add(st.BytesSent)
	r.Counter("rsp.bytes_recv").Add(st.BytesRecv)
	r.Counter("rsp.retransmits").Add(st.Retransmits)
	r.Counter("rsp.acks_sent").Add(st.AcksSent)
}

// installBreakpoints sets a software breakpoint at each line binding
// and a write watchpoint at each watch-mode binding. Addresses are
// sorted so the RSP command sequence (and any stub-side log of it) is
// identical run to run.
func (e *gdbEngine) installBreakpoints() error {
	for _, addr := range sortedKeys(e.byAddr) {
		if err := e.cl.SetBreakpoint(addr); err != nil {
			return err
		}
	}
	for _, addr := range sortedKeys(e.byWatch) {
		if err := e.cl.SetWatchpoint(addr, e.byWatch[addr].spec.Size); err != nil {
			return err
		}
	}
	return nil
}

// sortedKeys returns m's keys in order, so that nothing the schemes
// derive from a map depends on its iteration order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	return keys
}

// handleStop services a breakpoint or watchpoint stop at the current
// simulated time. The stop reply expedites the PC and cycle counter, so
// the stop itself costs no transaction; the binding's variable transfer
// is the only one. On GDB-Kernel the transfer resumes the ISS, and
// handleStop returns the stop that ends the resume; it returns no stop
// when the ISS must stay stopped waiting for SystemC-side data, and
// always none on the wrapper.
func (e *gdbEngine) handleStop(ev *gdb.StopEvent) (*gdb.StopEvent, error) {
	e.stats.Stops++
	e.obs.stops.Inc()
	if !ev.Expedited {
		return nil, e.errf("stop reply %v carries no expedited PC and cycle counter", ev)
	}
	var b *binding
	if ev.IsWatch {
		e.obs.watchHits.Inc()
		b = e.byWatch[ev.WatchAddr]
		if b == nil {
			return nil, e.errf("watchpoint hit at unbound address %#x", ev.WatchAddr)
		}
	} else {
		e.obs.breakHits.Inc()
		b = e.byAddr[ev.PC]
	}
	if b == nil {
		return nil, e.errf("ISS stopped at unbound address %#x", ev.PC)
	}
	e.clock.take(ev.Cycles)

	if b.inPort != nil {
		// ISS -> SystemC: the guest has stored the variable; read it and
		// deliver it to the iss_in port now, at the stop's time.
		var data []byte
		var next *gdb.StopEvent
		var err error
		if e.continues {
			sp := e.obs.waitStop()
			data, next, err = e.cl.ReadMemoryContinue(b.varAddr, b.spec.Size)
			sp.End()
		} else {
			data, err = e.cl.ReadMemory(b.varAddr, b.spec.Size)
		}
		if err != nil {
			return nil, e.errf("port %s: %w", b.spec.Port, err)
		}
		b.inPort.Deliver(data)
		e.stats.Transfers++
		e.obs.toSC.Inc()
		e.journal.Record(JournalEntry{
			Time: e.k.Now(), Scheme: e.schemeName, Dir: "iss->sc",
			Port: b.spec.Port, Bytes: len(data), Cycles: ev.Cycles,
		})
		return next, nil
	}

	// SystemC -> ISS: the guest is stopped at the read; poke the
	// variable if the port holds fresh data, else wait.
	if b.outPort.Writes() > b.consumed {
		return e.pokeOut(b)
	}
	e.waiting = b
	return nil, nil
}

// pokeOut writes the iss_out port's value into the guest variable. On
// GDB-Kernel the same write resumes the ISS, and pokeOut returns the
// stop that ends the resume.
func (e *gdbEngine) pokeOut(b *binding) (next *gdb.StopEvent, err error) {
	data := b.outPort.Bytes()
	if len(data) > b.spec.Size {
		data = data[:b.spec.Size]
	}
	if e.continues {
		sp := e.obs.waitStop()
		next, err = e.cl.WriteMemoryContinue(b.varAddr, data)
		sp.End()
	} else {
		err = e.cl.WriteMemory(b.varAddr, data)
	}
	if err != nil {
		return nil, e.errf("port %s: %w", b.spec.Port, err)
	}
	b.consumed = b.outPort.Writes()
	b.outPort.Consumed()
	e.stats.Transfers++
	e.obs.toISS.Inc()
	e.journal.Record(JournalEntry{
		Time: e.k.Now(), Scheme: e.schemeName, Dir: "sc->iss",
		Port: b.spec.Port, Bytes: len(data),
	})
	return next, nil
}

// retryWaiting re-checks a pending iss_out wait and pokes the variable
// once the port holds fresh data. Like pokeOut, on GDB-Kernel it
// returns the stop that ends the resume.
func (e *gdbEngine) retryWaiting() (*gdb.StopEvent, error) {
	b := e.waiting
	if b == nil || b.outPort.Writes() <= b.consumed {
		return nil, nil
	}
	e.waiting = nil
	e.clock.idle()
	return e.pokeOut(b)
}

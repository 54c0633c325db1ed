package core

import (
	"fmt"
	"io"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/sim"
)

// GDBWrapper is the state-of-the-art baseline the paper compares
// against (Benini et al. [14]): a wrapper module that the hardware
// designer instantiates explicitly. Its communication control is an
// sc_method sensitive to the clock: every clock cycle it synchronizes
// with the ISS through a full GDB remote-protocol round trip over IPC
// (the lock-step evolution the paper identifies as the bottleneck),
// advancing the ISS by a bounded instruction quantum.
type GDBWrapper struct {
	gdbEngine
	quantum uint64
	err     error
}

// GDBWrapperOptions configures the baseline wrapper.
type GDBWrapperOptions struct {
	// CommonOptions carries the journal and observability configuration.
	// The wrapper ignores CPUPeriod and SkewBound: lock-step timing is
	// implicit in the per-cycle quantum.
	CommonOptions
	// Clock drives the wrapper's sc_method (one RSP round trip per
	// positive edge). Required: the wrapper is the one scheme with a
	// clocked module. The kernel-embedded schemes need no clock; give
	// their kernel a poll grid (sim.Kernel.SetPollGrid) instead.
	Clock *sim.Clock
	// InstrPerCycle is the ISS instruction quantum per clock cycle
	// (the lock-step ratio between guest speed and the clock). Default 8.
	InstrPerCycle uint64
	// Bindings maps guest variables to ISS ports, as in GDB-Kernel.
	Bindings []VarBinding
}

// NewGDBWrapper attaches the wrapper baseline. conn is the RSP
// connection; the client reads replies inline (every synchronization is
// a blocking IPC transaction, as in [14]).
func NewGDBWrapper(k *sim.Kernel, conn io.ReadWriter, im *asm.Image, opts GDBWrapperOptions) (*GDBWrapper, error) {
	if opts.Clock == nil {
		return nil, fmt.Errorf("gdb-wrapper: a clock is required")
	}
	w := &GDBWrapper{quantum: opts.InstrPerCycle}
	if w.quantum == 0 {
		w.quantum = 8
	}
	w.k = k
	var err error
	if w.cl, err = gdb.NewClient(conn, gdb.ClientOptions{}); err != nil {
		return nil, fmt.Errorf("gdb-wrapper: attach: %w", err)
	}
	w.period = 0 // lock-step: timing is implicit in the per-cycle quantum
	w.journal = opts.Journal
	w.schemeName = "gdb-wrapper"
	w.obs.init(opts.Obs)
	w.byAddr, w.byWatch, err = resolveBindings(k, im, opts.Bindings)
	if err != nil {
		return nil, err
	}
	if err := w.installBreakpoints(); err != nil {
		return nil, err
	}
	// The explicitly instantiated wrapper process of [14]: an sc_method
	// statically sensitive to the clock.
	k.MethodNoInit("gdb_wrapper.sync", w.sync, opts.Clock.Pos())
	k.AddFinalizer(func() { shutdownClient(w.cl, conn) })
	return w, nil
}

// Client exposes the underlying RSP client.
func (w *GDBWrapper) Client() *gdb.Client { return w.cl }

// Stats returns co-simulation activity counters.
func (w *GDBWrapper) Stats() Stats { return w.stats }

// Detach implements Scheme. The lock-step guest only executes inside
// RunQuantum transactions, so there is nothing to quiesce.
func (w *GDBWrapper) Detach() {}

// Err returns the first co-simulation error, if any.
func (w *GDBWrapper) Err() error { return w.err }

// Exited reports whether the guest program has terminated.
func (w *GDBWrapper) Exited() bool { return w.exited }

// sync runs once per clock cycle: one qRun transaction (the per-cycle
// IPC synchronization), plus breakpoint servicing when the quantum ends
// early at a stop.
func (w *GDBWrapper) sync() {
	if w.err != nil || w.exited {
		return
	}
	w.stats.Polls++
	w.obs.polls.Inc()

	// If the ISS is stopped waiting for iss_out data, check whether the
	// hardware produced it this cycle; the quantum resumes next edge.
	if w.waiting != nil {
		if _, err := w.retryWaiting(); err != nil {
			w.fail(err)
		}
		return
	}

	ev, _, err := w.cl.RunQuantum(w.quantum)
	if err != nil {
		w.fail(err)
		return
	}
	if ev == nil {
		return // quantum exhausted, target still running: next edge continues
	}
	if ev.Exited {
		w.exited = true
		return
	}
	if _, err := w.handleStop(ev); err != nil {
		w.fail(err)
	}
	// Whether or not the transfer happened, execution continues with the
	// next cycle's quantum (handleStop left waiting state if needed).
}

func (w *GDBWrapper) fail(err error) {
	if w.err == nil {
		w.err = fmt.Errorf("gdb-wrapper: %w", err)
	}
}

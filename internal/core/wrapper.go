package core

import (
	"fmt"
	"io"

	"cosim/internal/asm"
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
}

// GDBWrapperOptions configures the baseline wrapper.
type GDBWrapperOptions struct {
	// CommonOptions carries the journal and observability configuration.
	// The wrapper ignores CPUPeriod: lock-step timing is
	// implicit in the per-cycle quantum.
	CommonOptions
	// Clock drives the wrapper's sc_method (one RSP round trip per
	// positive edge). Required: the wrapper is the one scheme with a
	// clocked module. The kernel-embedded schemes need no clock: they
	// run at the time points the model and their own CallAts visit.
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
	// Untimed (period 0): lock-step timing is implicit in the quantum.
	if err := w.attach("gdb-wrapper", k, conn, im, 0, opts.CommonOptions, opts.Bindings); err != nil {
		return nil, err
	}
	// The explicitly instantiated wrapper process of [14]: an sc_method
	// statically sensitive to the clock.
	k.MethodNoInit("gdb_wrapper.sync", w.sync, opts.Clock.Pos())
	k.AddFinalizer(func() { shutdownClient(w.cl, conn) })
	return w, nil
}

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
		w.fail(w.errf("run quantum: %w", err))
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

// fail records the first error; engine errors already name the scheme.
func (w *GDBWrapper) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

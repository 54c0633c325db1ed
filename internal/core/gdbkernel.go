package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/sim"
)

// GDBKernel is the paper's first proposed scheme (§3): the co-simulation
// wrapper is embedded into the simulation kernel. The ISS free-runs
// under a gdb 'continue'. A kernel hook at the beginning of each
// simulation cycle services its breakpoint stop exactly when simulated
// time reaches the skew bound past the resume — transferring data
// between the guest variable and the matching iss_in/iss_out port, then
// resuming the ISS (Figure 3), the transfer and the resume in one write
// — so outcomes depend on spec and seed only.
type GDBKernel struct {
	gdbEngine
	skewBound sim.Time
	outSince  sim.Time // time of the last resume
	err       error
}

// ErrStopTimeout reports a GDB-Kernel guest that did not stop within
// stopTimeout of wall time once simulated time reached its skew bound.
var ErrStopTimeout = errors.New("no stop within the wall timeout at the skew bound")

// GDBKernelOptions configures the scheme.
type GDBKernelOptions struct {
	// CommonOptions carries the timing, skew, journal and observability
	// configuration shared by all schemes.
	CommonOptions
	// Bindings maps guest variables to ISS ports (§3.2).
	Bindings []VarBinding
}

// NewGDBKernel attaches the scheme to the kernel. conn is the RSP
// connection to the ISS stub; im is the guest image (for symbols and
// the line table).
func NewGDBKernel(k *sim.Kernel, conn io.ReadWriter, im *asm.Image, opts GDBKernelOptions) (*GDBKernel, error) {
	g := &GDBKernel{skewBound: opts.SkewBound}
	g.k = k
	var err error
	if g.cl, err = gdb.NewClient(conn); err != nil {
		return nil, fmt.Errorf("gdb-kernel: attach: %w", err)
	}
	g.period = opts.CPUPeriod
	g.journal = opts.Journal
	g.schemeName = "gdb-kernel"
	g.continues = true
	g.obs.init(opts.Obs)
	g.byAddr, g.byWatch, err = resolveBindings(k, im, opts.Bindings)
	if err != nil {
		return nil, err
	}
	if err := g.installBreakpoints(); err != nil {
		return nil, err
	}
	if err := g.cl.Continue(); err != nil {
		return nil, err
	}
	k.AddCycleHook(g.hook)
	k.AddFinalizer(func() { shutdownClient(g.cl, conn) })
	return g, nil
}

// Client exposes the underlying RSP client (for tests and tools).
func (g *GDBKernel) Client() *gdb.Client { return g.cl }

// Stats returns co-simulation activity counters.
func (g *GDBKernel) Stats() Stats { return g.stats }

// Err returns the first co-simulation error, if any.
func (g *GDBKernel) Err() error { return g.err }

// Exited reports whether the guest program has terminated.
func (g *GDBKernel) Exited() bool { return g.exited }

// hook is the begin-of-cycle scheduler modification (Figure 3): "check,
// through the invocation of special methods of the wrapper class, if
// the GDB is stopped at a breakpoint".
func (g *GDBKernel) hook(k *sim.Kernel) {
	if g.err != nil || g.exited {
		return
	}
	g.stats.Polls++
	g.obs.polls.Inc()

	// A stopped ISS waiting for iss_out data resumes as soon as the
	// SystemC side produces it.
	if g.waiting != nil {
		ok, err := g.retryWaiting()
		if err != nil {
			g.fail(err)
			return
		}
		if ok {
			g.resumed()
		}
		return
	}

	// Before the skew bound the hook only compares times; at the bound
	// it holds simulated time until the ISS stops.
	if !g.cl.Running() || k.Now().Before(g.outSince.Add(g.skewBound)) {
		return
	}
	g.obs.skewWaits.Inc()
	sp := g.obs.skewWaitNS.Start()
	ev, stopped, err := g.cl.WaitStopTimeout(stopTimeout)
	sp.End()
	if err != nil {
		g.fail(err)
		return
	}
	if !stopped {
		g.obs.skewTimeouts.Inc()
		g.err = g.errf("guest of ports %s: %w after %v", g.ports(), ErrStopTimeout, stopTimeout)
		return
	}
	if ev.Exited {
		g.exited = true
		return
	}
	resume, err := g.handleStop(ev)
	if err != nil {
		g.fail(err)
		return
	}
	if resume {
		g.resumed()
	}
	// Otherwise the ISS stays stopped; retryWaiting will resume it.
}

// ports lists the guest's bound port names, for errors.
func (g *GDBKernel) ports() string {
	var names []string
	for _, b := range g.byAddr {
		names = append(names, b.spec.Port)
	}
	for _, b := range g.byWatch {
		names = append(names, b.spec.Port)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// Detach implements Scheme: it quiesces the free-running ISS.
func (g *GDBKernel) Detach() { g.Quiesce() }

// Quiesce halts a free-running ISS after the simulation has finished,
// so its instruction/cycle counters can be read without racing the stub
// goroutine. It is a no-op when the guest is already stopped, exited,
// or the scheme has failed.
func (g *GDBKernel) Quiesce() {
	if !g.cl.Running() || g.exited || g.err != nil {
		return
	}
	if err := g.cl.Interrupt(); err != nil {
		return
	}
	_, _, _ = g.cl.WaitStopTimeout(stopTimeout)
}

// resumed starts the skew bound of a resume: the transfer that
// serviced the stop has also continued the ISS.
func (g *GDBKernel) resumed() { g.outSince = g.k.Now() }

func (g *GDBKernel) fail(err error) {
	if g.err == nil {
		g.err = fmt.Errorf("gdb-kernel: %w", err)
	}
}

package core

import (
	"errors"
	"io"
	"sort"
	"strings"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/sim"
)

// GDBKernel is the paper's first proposed scheme (§3): the co-simulation
// wrapper is embedded into the simulation kernel. The ISS free-runs
// under a gdb 'continue'. A bare-metal guest touches the hardware model
// only at a breakpoint stop, so once the ISS resumes nothing the kernel
// does can change what it runs before its next stop: the kernel reads
// that stop as soon as it resumes the ISS, and services it at the
// simulated time of the stop's cycle stamp — transferring data between
// the guest variable and the matching iss_in/iss_out port, then
// resuming the ISS (Figure 3), the transfer and the resume in one
// write. The ISS stays stopped until then, so outcomes depend on spec
// and seed only.
type GDBKernel struct {
	gdbEngine
	stop    gdb.StopEvent // the stop the next service handles
	service func()        // serve, bound once: scheduling it allocates nothing
}

// ErrStopTimeout reports a GDB-Kernel guest that did not stop within
// stopTimeout of wall time after a resume.
var ErrStopTimeout = errors.New("no stop within the wall timeout of a resume")

// GDBKernelOptions configures the scheme.
type GDBKernelOptions struct {
	// CommonOptions carries the timing, journal and observability
	// configuration shared by all schemes. Each stop is serviced at
	// its own cycle stamp.
	CommonOptions
	// Bindings maps guest variables to ISS ports (§3.2).
	Bindings []VarBinding
}

// NewGDBKernel attaches the scheme to the kernel. conn is the RSP
// connection to the ISS stub; im is the guest image (for symbols and
// the line table). It resumes the ISS and reads its first stop.
func NewGDBKernel(k *sim.Kernel, conn io.ReadWriter, im *asm.Image, opts GDBKernelOptions) (*GDBKernel, error) {
	g := &GDBKernel{}
	if err := g.attach("gdb-kernel", k, conn, im, opts.CPUPeriod, opts.CommonOptions, opts.Bindings); err != nil {
		return nil, err
	}
	g.cl.SetStopTimeout(stopTimeout)
	g.continues = true
	g.service = g.serve
	for _, addr := range sortedKeys(g.byAddr) {
		if b := g.byAddr[addr]; b.outPort != nil {
			// A stop parked for this port's data resumes as the port is
			// written, at that time point.
			b.outPort.SetOnWrite(func([]byte, uint64) {
				if g.waiting == b {
					g.collect(g.retryWaiting())
				}
			})
		}
	}
	k.AddFinalizer(func() { shutdownClient(g.cl, conn) })
	sp := g.obs.waitStop()
	ev, err := g.cl.Continue()
	sp.End()
	if err != nil {
		err = g.errf("resume: %w", err)
	}
	g.collect(ev, err)
	return g, nil
}

// collect takes the outcome of a service or of the attach: the stop
// that ended its resume, whose service it schedules at the simulated
// time the stop's cycle stamp implies (never in the past), or the
// scheme's error. A service that parked the ISS has no stop.
func (g *GDBKernel) collect(ev *gdb.StopEvent, err error) {
	switch {
	case errors.Is(err, gdb.ErrTimeout):
		g.obs.skewTimeouts.Inc()
		g.err = g.errf("guest of ports %s: %w (%v)", g.ports(), ErrStopTimeout, stopTimeout)
	case err != nil:
		g.err = err
	case ev == nil:
		// Parked for iss_out data: the port's write resumes it.
	case ev.Exited:
		g.exited = true
	default:
		g.stop = *ev
		g.k.CallAt(g.clock.notBefore(g.clock.timeOf(ev.Cycles)), g.service)
	}
}

// serve services the collected stop (Figure 3's check that "the GDB is
// stopped at a breakpoint"), at the stop's own simulated time.
func (g *GDBKernel) serve() {
	g.stats.Polls++
	g.obs.polls.Inc()
	g.collect(g.handleStop(&g.stop))
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

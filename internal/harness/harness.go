// Package harness assembles complete co-simulation scenarios of the
// paper's case study — router, traffic, ISS guest, co-simulation scheme
// — runs them, and reports the measurements behind Table 1 and
// Figure 7.
package harness

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"cosim/internal/core"
	"cosim/internal/dev"
	"cosim/internal/iss"
	"cosim/internal/obs"
	"cosim/internal/router"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

// Scheme selects the co-simulation scheme under test.
type Scheme int

const (
	// GDBWrapper is the state-of-the-art baseline of [14].
	GDBWrapper Scheme = iota
	// GDBKernel is the paper's first proposed scheme (§3).
	GDBKernel
	// DriverKernel is the paper's second proposed scheme (§4).
	DriverKernel
)

// Schemes lists all schemes in the paper's presentation order.
var Schemes = []Scheme{GDBWrapper, GDBKernel, DriverKernel}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case GDBWrapper:
		return "GDB-Wrapper"
	case GDBKernel:
		return "GDB-Kernel"
	case DriverKernel:
		return "Driver-Kernel"
	}
	return fmt.Sprintf("Scheme(%d)", int(s))
}

// ParseScheme resolves a scheme by (case-insensitive) name.
func ParseScheme(name string) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "gdb-wrapper", "wrapper":
		return GDBWrapper, nil
	case "gdb-kernel", "kernel":
		return GDBKernel, nil
	case "driver-kernel", "driver":
		return DriverKernel, nil
	}
	return 0, fmt.Errorf("harness: unknown scheme %q", name)
}

// Set implements flag.Value, so a Scheme can be bound directly to a
// -scheme flag with flag.Var.
func (s *Scheme) Set(name string) error {
	v, err := ParseScheme(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// CoreName returns the canonical scheme name core.Attach accepts.
func (s Scheme) CoreName() string { return strings.ToLower(s.String()) }

// ErrSingleCPUScheme reports a multi-CPU request against a scheme that
// can drive only one ISS. Test with errors.Is.
var ErrSingleCPUScheme = errors.New("scheme drives a single CPU")

// SupportsMultiCPU reports whether the scheme can drive several guest
// processors in one run. The lock-step GDB-Wrapper cannot: its clocked
// sc_method owns exactly one RSP connection. GDB-Kernel multiplexes N
// free-running stubs; Driver-Kernel multiplexes N data/interrupt
// channel pairs.
func (s Scheme) SupportsMultiCPU() bool { return s == GDBKernel || s == DriverKernel }

// Params configures one co-simulation run of the router case study.
type Params struct {
	Scheme Scheme
	// Transport selects the IPC backend connecting the two simulators
	// (core.TransportTCP/Unix/Ring/Pipe); nil means the in-process pipe
	// default. Run wraps it with core.ObservedTransport, so every run's
	// registry carries transport.<name>.{pairs,tx_bytes,rx_bytes}.
	Transport core.Transport

	// SimTime is the simulated duration to execute.
	SimTime sim.Time
	// ClockPeriod is the system clock period (default 100ns, at least
	// 2ps). Only the GDB-Wrapper gets a clock process: its sc_method is
	// sensitive to the positive edge. The kernel schemes need no clocked
	// module, so their cycle hooks poll on a grid of the clock's edge
	// times (every ClockPeriod/2) instead.
	ClockPeriod sim.Time
	// CPUPeriod is the guest cycle length for time coupling. Zero
	// means the default, 10ns; cycle coupling cannot be switched off.
	CPUPeriod sim.Time
	// SkewBound bounds how far simulated time may race past an
	// in-flight ISS interaction (see core). Zero means the default,
	// 1us; a run is never free-running.
	SkewBound sim.Time
	// Quantum is inert: temporal decoupling was removed, and the
	// Driver-Kernel scheme synchronises with its guests every cycle.
	// The field stays only so existing callers still compile; setting
	// it changes nothing.
	Quantum sim.Time
	// InstrPerCycle is the GDB-Wrapper lock-step quantum (default 8).
	InstrPerCycle uint64
	// CPUs is the number of checksum processors servicing the router in
	// parallel (default 1) — the multi-processor SoC configuration of
	// the title. Supported by the GDB-Kernel and Driver-Kernel schemes;
	// the lock-step GDB-Wrapper rejects values above one with
	// ErrSingleCPUScheme.
	CPUs int

	// Traffic shape.
	Delay            sim.Time // inter-packet delay per source
	PayloadWords     int
	ErrorRate        float64
	MulticastRate    float64
	FifoDepth        int
	PacketsPerSource uint64 // 0 = unlimited
	Seed             int64

	// NoDecodeCache disables the ISS predecoded-instruction cache on
	// every CPU in the run — the ablation baseline behind benchtab's
	// -nodecodecache flag.
	NoDecodeCache bool

	// DMI grants each Driver-Kernel guest direct memory windows over its
	// bound ports, serving side-effect-free port accesses without a
	// protocol message (benchtab's -dmi flag). Ignored by GDB schemes.
	DMI bool
	// Coalesce is inert: message coalescing was removed, and every
	// scheme exchanges plain frames. The field stays only so existing
	// callers still compile; setting it changes nothing.
	Coalesce bool

	// Trace, when set, receives a VCD of router occupancy.
	Trace io.Writer
	// Journal, when set, records every co-simulation transfer.
	Journal *core.Journal
	// Obs, when set, is the observability registry the run populates;
	// when nil, Run creates one (Result.Obs always holds it).
	Obs *obs.Registry
}

// WithDefaults returns p with every zero field replaced by the run
// default — the view Run executes and admission control must quota
// against (an empty SimTime is a 1ms run, not a zero-length one).
func (p Params) WithDefaults() Params { return p.withDefaults() }

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.ClockPeriod == 0 {
		p.ClockPeriod = 100 * sim.NS
	}
	if p.CPUPeriod == 0 {
		p.CPUPeriod = 10 * sim.NS
	}
	if p.SkewBound == 0 {
		p.SkewBound = sim.US
	}
	if p.InstrPerCycle == 0 {
		p.InstrPerCycle = 8
	}
	if p.Delay == 0 {
		p.Delay = 20 * sim.US
	}
	if p.PayloadWords == 0 {
		p.PayloadWords = 4
	}
	if p.FifoDepth == 0 {
		p.FifoDepth = 8
	}
	if p.SimTime == 0 {
		p.SimTime = sim.MS
	}
	if p.CPUs == 0 {
		p.CPUs = 1
	}
	return p
}

// Result is the outcome of one run.
type Result struct {
	Params Params

	Wall      time.Duration
	Simulated sim.Time

	Generated uint64
	Offered   uint64
	InDrops   uint64
	BadSent   uint64

	Dequeued  uint64
	Forwarded uint64
	Corrupted uint64
	OutDrops  uint64
	Copies    uint64

	Received   uint64
	BadContent uint64
	Misrouted  uint64
	MeanLat    sim.Time

	CoStats           core.Stats
	GuestInstructions uint64
	GuestCycles       uint64

	// Obs is the run's observability registry; Counters is its
	// flattened snapshot (counters and gauges verbatim, histograms as
	// name.count / name.sum / name.max).
	Obs      *obs.Registry
	Counters map[string]uint64

	// TraceErr reports a VCD writer failure: the trace file is
	// truncated or unwritable even though the run itself succeeded.
	TraceErr error

	// Allocs and AllocBytes are runtime.ReadMemStats deltas across the
	// run (mallocs and bytes). They are process-wide: when several runs
	// execute concurrently under RunAll, each run's delta includes its
	// neighbours' allocations, so compare them only from sequential
	// sweeps.
	Allocs     uint64
	AllocBytes uint64
}

// ForwardedPct is the y-axis of Figure 7: the percentage of generated
// packets the router forwarded.
func (r *Result) ForwardedPct() float64 {
	if r.Generated == 0 {
		return 0
	}
	return 100 * float64(r.Forwarded) / float64(r.Generated)
}

// Run executes one full co-simulation of the case study. It is
// RunContext with a background context; existing call sites keep
// compiling unchanged.
func Run(p Params) (*Result, error) { return RunContext(context.Background(), p) }

// RunContext executes one full co-simulation of the case study under
// ctx. Cancellation is cooperative: a begin-of-cycle hook watches
// ctx.Done() and stops the kernel at the next simulation-cycle
// boundary, the deferred teardown shuts the kernel, channels and guest
// runners down, and the call returns ctx.Err() instead of a Result. A
// context deadline bounds the run's wall-clock time the same way.
func RunContext(ctx context.Context, p Params) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	if p.ClockPeriod < 2 {
		return nil, fmt.Errorf("harness: clock period %v is below 2ps: its edges must be half a period apart", p.ClockPeriod)
	}
	reg := p.Obs
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// All channel pairs below go through the observed transport so the
	// run's registry records per-backend pair and byte counters.
	tr := core.ObservedTransport(p.Transport, reg)
	k := sim.NewKernel("soc")
	// Only the wrapper's sc_method listens to a clock. The kernel schemes
	// poll at the same edge times without one: a clock nothing listens to
	// would cost a process activation, a signal update and two delta
	// notifications per edge.
	var clk *sim.Clock
	if p.Scheme == GDBWrapper {
		clk = sim.NewClock(k, "clk", p.ClockPeriod)
	} else if err := k.SetPollGrid(p.ClockPeriod / 2); err != nil {
		return nil, err
	}
	if done := ctx.Done(); done != nil {
		// Cooperative cancellation: one non-blocking poll per simulation
		// cycle, the same cadence the paper's kernel-embedded schemes use
		// for their external activity checks.
		k.AddCycleHook(func(k *sim.Kernel) {
			select {
			case <-done:
				k.Stop()
			default:
			}
		})
	}

	var (
		schemes []core.Scheme
		cpus    []*iss.CPU
		engines []router.Engine
		cleanup []func() // teardown of every endpoint and runner, registered as each is made
		quiesce []func() // halts guest goroutines before counters are read
	)
	defer func() {
		// The kernel goes first: its finalizers shut down the attached
		// schemes and close their channels. The cleanup list then closes
		// the host ends no scheme took over (a set-up that failed part
		// way) and stops the RTOS runners. Every close is idempotent.
		k.Shutdown()
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()

	if p.CPUs > 1 && !p.Scheme.SupportsMultiCPU() {
		return nil, fmt.Errorf("harness: %v %w: the lock-step wrapper owns exactly one RSP connection; use gdb-kernel or driver-kernel for CPUs > 1", p.Scheme, ErrSingleCPUScheme)
	}
	// A multi-CPU run prefixes each CPU's iss ports so N identical
	// guests attach to one kernel without colliding.
	portPrefix := func(n int) string {
		if p.CPUs > 1 {
			return fmt.Sprintf("cpu%d.", n)
		}
		return ""
	}

	switch p.Scheme {
	case GDBWrapper, GDBKernel:
		im, err := router.GDBGuest()
		if err != nil {
			return nil, err
		}
		for n := 0; n < p.CPUs; n++ {
			prefix := portPrefix(n)
			ram := iss.NewRAM(1 << 20)
			if err := im.LoadInto(ram); err != nil {
				return nil, err
			}
			cpu := iss.New(iss.NewSystemBus(ram))
			if p.NoDecodeCache {
				cpu.SetDecodeCacheEnabled(false)
			}
			cpu.Reset(im.Entry)
			target, err := core.StartGDBTarget(cpu, tr)
			if err != nil {
				return nil, err
			}
			cleanup = append(cleanup, func() { target.HostConn.Close() })
			sch, err := core.Attach(k, core.Config{
				Scheme: p.Scheme.CoreName(),
				Common: core.CommonOptions{
					CPUPeriod: p.CPUPeriod,
					SkewBound: p.SkewBound,
					Journal:   p.Journal,
					Obs:       reg,
				},
				Conn:          target.HostConn,
				Image:         im,
				Bindings:      router.GDBBindingsPrefixed(prefix),
				Clock:         clk,
				InstrPerCycle: p.InstrPerCycle,
			})
			if err != nil {
				return nil, err
			}
			schemes = append(schemes, sch)
			cpus = append(cpus, cpu)
			pktPort, _ := k.IssOutPort(prefix + router.PktPortName)
			csumPort, _ := k.IssInPort(prefix + router.CsumPortName)
			engines = append(engines, router.Engine{Pkt: pktPort, Csum: csumPort})
		}

	case DriverKernel:
		// One RTOS guest, one data/interrupt channel pair per CPU; a
		// single scheme instance routes traffic between them (§5.6).
		im, err := router.DriverGuest()
		if err != nil {
			return nil, err
		}
		channels := make([]core.DriverChannel, 0, p.CPUs)
		for n := 0; n < p.CPUs; n++ {
			plat := dev.NewPlatform(0, nil)
			plat.SetInstance(n)
			if p.NoDecodeCache {
				plat.CPU.SetDecodeCacheEnabled(false)
			}
			if err := im.LoadInto(plat.RAM); err != nil {
				return nil, err
			}
			plat.CPU.Reset(im.Entry)
			target, err := core.ConnectDriverTarget(plat, tr)
			if err != nil {
				return nil, err
			}
			runner := rtos.NewRunner(plat)
			runner.Start()
			// Teardown runs in reverse, so the host ends close first and
			// release a runner blocked writing into a full channel.
			cleanup = append(cleanup, runner.Stop, func() {
				target.DataHost.Close()
				target.IRQHost.Close()
			})
			quiesce = append(quiesce, runner.Stop) // Stop is idempotent
			channels = append(channels, core.DriverChannel{
				Data:   target.DataHost,
				IRQ:    target.IRQHost,
				Prefix: portPrefix(n),
				Ports:  router.DriverPorts(),
				DMI:    plat,
			})
			cpus = append(cpus, plat.CPU)
		}
		sch, err := core.Attach(k, core.Config{
			Scheme: p.Scheme.CoreName(),
			Common: core.CommonOptions{
				CPUPeriod: p.CPUPeriod,
				SkewBound: p.SkewBound,
				Journal:   p.Journal,
				Obs:       reg,
				CPUs:      p.CPUs,
			},
			Channels: channels,
			DMI:      p.DMI,
		})
		if err != nil {
			return nil, err
		}
		d := sch.(*core.DriverKernel) // the doorbells below need RaiseInterruptCPU
		schemes = append(schemes, sch)
		for n := 0; n < p.CPUs; n++ {
			pktPort, _ := k.IssOutPort(portPrefix(n) + router.PktPortName)
			csumPort, _ := k.IssInPort(portPrefix(n) + router.CsumPortName)
			id := n
			engines = append(engines, router.Engine{
				Pkt:      pktPort,
				Csum:     csumPort,
				Doorbell: func() { d.RaiseInterruptCPU(id, router.IntNewPacket) },
			})
		}

	default:
		return nil, fmt.Errorf("harness: unknown scheme %v", p.Scheme)
	}

	// Hardware side: the router, producers and consumers of Figure 6.
	rt := router.New(k, "router", router.Config{FifoDepth: p.FifoDepth}, engines)

	ids := &router.IDSource{}
	producers := make([]*router.Producer, router.NumPorts)
	consumers := make([]*router.Consumer, router.NumPorts)
	for i := 0; i < router.NumPorts; i++ {
		producers[i] = router.NewProducer(k, fmt.Sprintf("prod%d", i), uint8(i), rt.In[i], ids,
			router.ProducerConfig{
				Delay:         p.Delay,
				PayloadWords:  p.PayloadWords,
				ErrorRate:     p.ErrorRate,
				MulticastRate: p.MulticastRate,
				Count:         p.PacketsPerSource,
				Seed:          p.Seed + 1,
			})
		consumers[i] = router.NewConsumer(k, fmt.Sprintf("cons%d", i), i, rt.Out[i], rt.RouteOK)
	}

	var tracer *sim.Tracer
	if p.Trace != nil {
		tracer = sim.NewTracer(k, p.Trace, "router")
		for i := 0; i < router.NumPorts; i++ {
			q := rt.In[i]
			sim.TraceFunc(tracer, fmt.Sprintf("in%d_occupancy", i), 8, func() uint64 { return uint64(q.Len()) })
		}
	}

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	err := k.Run(p.SimTime)
	wall := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if err != nil && err != sim.ErrDeadlock {
		return nil, err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The cancellation hook stopped the kernel mid-run; the deferred
		// cleanup tears down runners, channels and the kernel itself.
		return nil, cerr
	}
	for _, sch := range schemes {
		if schemeErr := sch.Err(); schemeErr != nil {
			return nil, schemeErr
		}
	}
	// The guests run in their own goroutines (the stub's free-run, the
	// RTOS runner); halt them before touching their counters.
	for _, sch := range schemes {
		sch.Detach()
	}
	for _, fn := range quiesce {
		fn()
	}

	res := &Result{
		Params:     p,
		Wall:       wall,
		Simulated:  k.Now(),
		Obs:        reg,
		Allocs:     msAfter.Mallocs - msBefore.Mallocs,
		AllocBytes: msAfter.TotalAlloc - msBefore.TotalAlloc,
	}
	if tracer != nil {
		res.TraceErr = tracer.Err()
	}
	for _, sch := range schemes {
		st := sch.Stats()
		res.CoStats.Transfers += st.Transfers
		res.CoStats.Stops += st.Stops
		res.CoStats.Polls += st.Polls
		res.CoStats.Messages += st.Messages
		res.CoStats.IntsNotified += st.IntsNotified
		res.CoStats.DMIHits += st.DMIHits
		res.CoStats.DMIMisses += st.DMIMisses
		sch.Publish(reg)
	}
	for _, cpu := range cpus {
		res.GuestInstructions += cpu.Instructions()
		res.GuestCycles += cpu.Cycles()
		cpu.PublishObs(reg)
	}
	k.PublishObs(reg)
	res.Counters = reg.Snapshot().Flatten()
	for _, pr := range producers {
		res.Generated += pr.Generated
		res.Offered += pr.Offered
		res.InDrops += pr.InDrops
		res.BadSent += pr.BadSent
	}
	rs := rt.Stats()
	res.Dequeued, res.Forwarded, res.Corrupted, res.OutDrops = rs.Dequeued, rs.Forwarded, rs.Corrupted, rs.OutDrops
	res.Copies = rs.Copies
	var lat sim.Time
	for _, cn := range consumers {
		res.Received += cn.Received
		res.BadContent += cn.BadContent
		res.Misrouted += cn.Misrouted
		lat = lat.Add(cn.TotalLat)
	}
	if res.Received > 0 {
		res.MeanLat = lat / sim.Time(res.Received)
	}
	return res, nil
}

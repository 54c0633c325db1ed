package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosim/internal/dev"
	"cosim/internal/obs"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// DriverKernel is the paper's second proposed scheme (§4): the guest OS
// device driver masters the co-simulation, exchanging binary READ/WRITE
// messages with the SystemC kernel over the data socket (port 4444 in
// the paper) while the kernel notifies interrupts over the interrupt
// socket (port 4445). The scheduler modifications of Figure 5 map to a
// begin-of-cycle hook (drain the data sockets) and an end-of-cycle hook
// (send queued interrupt notifications).
//
// The scheme scales to a multi-processor SoC: each guest CPU owns one
// data/interrupt channel pair (the paper's 4444/4445 sockets,
// parameterized per CPU), messages are tagged with the CPU id at
// channel ingress, and the drain/flush hooks route READ/WRITE/INTERRUPT
// traffic to the per-CPU state. The N guests stay in deterministic
// lock-step because the conservative skew wait is applied per CPU: the
// kernel never advances more than SkewBound past the minimum
// outstanding target time across all CPUs (see DESIGN.md §5.6).
type DriverKernel struct {
	k *sim.Kernel

	period      sim.Time
	skewBound   sim.Time
	waitTimeout time.Duration // how long a conservative wait may block

	// quantum, when non-zero, temporally decouples the scheme: the
	// conservative per-cycle synchronization (flush + skew-bounded wait)
	// is thinned out to quantum boundaries, plus early-sync "breaks" on
	// externally visible activity (a non-DMI port access arriving as a
	// READ/WRITE message, an interrupt delivery, a DMI window
	// revocation). Message ingestion and CallAt delivery stay per-cycle,
	// so the functional outcome is quantum-invariant — only the coupling
	// cadence (and therefore the wall clock) changes. nextQuantum is the
	// next boundary; kernel context only.
	quantum     sim.Time
	nextQuantum sim.Time

	// dmi grants each CPU's bridge device direct windows into the
	// side-effect-free backing memory of its bound ports. It is an
	// attach-time choice (DriverKernelOptions) — the hot paths branch on
	// a plain bool, never on configuration lookups.
	dmi bool

	mu     sync.Mutex
	inbox  []Message     // CPU-tagged, drained by the begin-of-cycle hook; guarded by mu
	notify chan struct{} // signalled by a reader when messages arrive

	cpus []*driverCPU

	journal *Journal

	err    error
	stats  Stats
	obs    driverObs
	obsReg *obs.Registry // registry the obs handles were resolved against
}

// driverCPU is the per-processor half of the scheme: one channel pair,
// one port namespace, one timeline anchor, one interrupt queue.
type driverCPU struct {
	d     *DriverKernel
	id    int
	label string // "driver-kernel cpu0", the error/metric prefix

	dataW io.Writer
	irqW  io.Writer

	// dataF/irqF are the channels' optional batched-I/O handles,
	// resolved once at attach time so the per-cycle flush is two nil
	// checks, not two type assertions. Nil for unbuffered transports.
	dataF transport.Flusher
	irqF  transport.Flusher

	// Port routing: the guest names ports without knowing which CPU it
	// is ("pkt", "csum"); the channel prefix maps those names onto this
	// CPU's kernel ports ("cpu1.pkt"). Keys are guest-visible names.
	prefix      string
	inPorts     map[string]*sim.IssIn
	outBindings map[string]*binding

	// Guest-cycle -> simulated-time anchor (32-bit wrap-aware).
	syncCycles uint32
	syncTime   sim.Time

	// Conservative synchronization, as in gdbEngine: when skewBound is
	// non-zero, the kernel waits (wall-clock) for this guest's next
	// message rather than racing simulated time past an outstanding
	// request (a READ reply or a notified interrupt).
	outstanding bool
	outSince    sim.Time

	pendingReads []*binding
	intQueue     []uint32
	irqBuf       [4]byte // scratch for interrupt notifications (kernel context only)

	rdErr  error // reader goroutine's terminal error; guarded by d.mu
	hadMsg bool  // batch scratch: a message from this CPU was drained

	// syncBreak marks an early-sync cause observed for this CPU in
	// quantum mode (message arrival, served READ, interrupt delivery,
	// window revocation); consumed by quantumSync. Kernel context only.
	syncBreak bool

	// DMI state: the windows granted over this CPU's bound ports, the
	// guest-activity flag its window hits raise (the lock-step wait
	// treats window activity exactly like an arriving message), and a
	// kernel-context scratch for draining staged writes.
	grants    []*dmiGrant
	dmiActive atomic.Bool
	stagedBuf []dev.StagedWrite

	obs driverCPUObs
}

// dmiGrant couples one granted window to the kernel-side state it
// shadows: a read grant mirrors an iss_out binding (b != nil), a write
// grant stages stores for an iss_in port (in != nil). The last* fields
// remember the window counters already flushed into the obs registry,
// so reconciliation adds deltas instead of re-counting.
type dmiGrant struct {
	w    *dev.Window
	b    *binding   // read grant: the iss_out binding served by the window
	in   *sim.IssIn // write grant: the iss_in port staged stores deliver to
	port string     // guest-visible port name (journal/labels)

	lastHits, lastMisses, lastRevs uint64
}

// driverObs holds the aggregate Driver-Kernel hot-path metrics,
// pre-resolved at attach time; all fields are nil (no-ops) without a
// registry.
type driverObs struct {
	polls        *obs.Counter
	messages     *obs.Counter
	writes       *obs.Counter
	reads        *obs.Counter
	replies      *obs.Counter
	interrupts   *obs.Counter
	skewWaits    *obs.Counter
	skewWaitNS   *obs.Histogram
	skewTimeouts *obs.Counter // skew waits abandoned after waitTimeout
	pendingReads *obs.Gauge

	dmiHits        *obs.Counter
	dmiMisses      *obs.Counter
	dmiRevocations *obs.Counter

	quantumSyncs  *obs.Counter
	quantumBreaks *obs.Counter
}

func (o *driverObs) init(r *obs.Registry) {
	o.polls = r.Counter("driver.polls")
	o.messages = r.Counter("driver.messages")
	o.writes = r.Counter("driver.msgs_write")
	o.reads = r.Counter("driver.msgs_read")
	o.replies = r.Counter("driver.data_replies")
	o.interrupts = r.Counter("driver.interrupts")
	o.skewWaits = r.Counter("driver.skew_waits")
	o.skewWaitNS = r.Histogram("driver.skew_wait_ns")
	o.skewTimeouts = r.Counter("driver.skew_wait_timeouts")
	o.pendingReads = r.Gauge("driver.pending_reads")
	o.dmiHits = r.Counter("driver.dmi_hits")
	o.dmiMisses = r.Counter("driver.dmi_misses")
	o.dmiRevocations = r.Counter("driver.dmi_revocations")
	o.quantumSyncs = r.Counter("driver.quantum_syncs")
	o.quantumBreaks = r.Counter("driver.quantum_breaks")
}

// driverCPUObs is the per-CPU counter set ("driver.cpu0.messages", ...)
// published next to the aggregates so multi-CPU runs show per-processor
// traffic, skew-wait stalls and interrupt fan-out in `benchtab -json`.
type driverCPUObs struct {
	messages     *obs.Counter
	interrupts   *obs.Counter
	skewWaits    *obs.Counter
	skewTimeouts *obs.Counter

	dmiHits        *obs.Counter
	dmiMisses      *obs.Counter
	dmiRevocations *obs.Counter

	quantumSyncs  *obs.Counter
	quantumBreaks *obs.Counter

	// pendingReads and its name are resolved once here so Publish — a
	// per-flush hot path — never rebuilds "driver.cpuN.*" strings. The
	// name is kept for Publish calls against a foreign registry.
	pendingReads     *obs.Gauge
	pendingReadsName string
}

func (o *driverCPUObs) init(r *obs.Registry, id int) {
	o.messages = r.Counter(fmt.Sprintf("driver.cpu%d.messages", id))
	o.interrupts = r.Counter(fmt.Sprintf("driver.cpu%d.interrupts", id))
	o.skewWaits = r.Counter(fmt.Sprintf("driver.cpu%d.skew_waits", id))
	o.skewTimeouts = r.Counter(fmt.Sprintf("driver.cpu%d.skew_wait_timeouts", id))
	o.dmiHits = r.Counter(fmt.Sprintf("driver.cpu%d.dmi_hits", id))
	o.dmiMisses = r.Counter(fmt.Sprintf("driver.cpu%d.dmi_misses", id))
	o.dmiRevocations = r.Counter(fmt.Sprintf("driver.cpu%d.dmi_revocations", id))
	o.quantumSyncs = r.Counter(fmt.Sprintf("driver.cpu%d.quantum_syncs", id))
	o.quantumBreaks = r.Counter(fmt.Sprintf("driver.cpu%d.quantum_breaks", id))
	o.pendingReadsName = fmt.Sprintf("driver.cpu%d.pending_reads", id)
	o.pendingReads = r.Gauge(o.pendingReadsName)
}

// DriverChannel is one CPU's co-simulation transport: the kernel-side
// ends of its data and interrupt sockets, plus the iss ports its driver
// may address. Ports are declared with guest-visible names; Prefix maps
// them onto the kernel's port registry (a multi-CPU run prefixes each
// CPU's ports "cpu0.", "cpu1.", ... so N identical guest images can
// attach to one kernel without colliding).
type DriverChannel struct {
	Data   io.ReadWriter
	IRQ    io.Writer
	Prefix string
	Ports  []VarBinding

	// DMI, when non-nil and DriverKernelOptions.DMI is set, is the grant
	// surface of this CPU's guest-side bridge device (its Platform or
	// CosimDev): the kernel grants it a direct window per bound port so
	// guest accesses to side-effect-free port memory bypass the message
	// protocol. Channels without a granter simply never hit.
	DMI dev.DMIGranter
}

// DriverKernelOptions configures the scheme.
type DriverKernelOptions struct {
	// CommonOptions carries the timing, skew, journal and observability
	// configuration shared by all schemes. When CPUs is non-zero it must
	// match the channel count.
	CommonOptions
	// Ports declares the iss_in (ToSystemC) and iss_out (ToISS) ports
	// the driver may address. Var/breakpoint fields are unused here —
	// the driver names ports explicitly in its messages. Only consulted
	// by the single-CPU NewDriverKernel constructor; multi-CPU callers
	// declare ports per channel.
	Ports []VarBinding

	// DMI grants direct memory windows over each channel's bound ports
	// (requires the channel to carry a granter). Off by default.
	DMI bool
}

// NewDriverKernel attaches the scheme with a single CPU. data and irq
// are the kernel-side ends of the two sockets.
func NewDriverKernel(k *sim.Kernel, data io.ReadWriter, irq io.Writer, opts DriverKernelOptions) (*DriverKernel, error) {
	chans := []DriverChannel{{Data: data, IRQ: irq, Ports: opts.Ports}}
	opts.Ports = nil
	return NewDriverKernelMulti(k, chans, opts)
}

// NewDriverKernelMulti attaches the scheme with one channel pair per
// CPU — the multi-processor SoC configuration of the paper's title.
// Channel i serves CPU i; interrupt routing and message drains address
// CPUs by that index.
func NewDriverKernelMulti(k *sim.Kernel, channels []DriverChannel, opts DriverKernelOptions) (*DriverKernel, error) {
	if len(channels) == 0 {
		return nil, errors.New("driver-kernel: at least one CPU channel is required")
	}
	if opts.CPUs != 0 && opts.CPUs != len(channels) {
		return nil, fmt.Errorf("driver-kernel: CPUs = %d but %d channels given", opts.CPUs, len(channels))
	}
	d := &DriverKernel{
		k:           k,
		period:      opts.CPUPeriod,
		skewBound:   opts.SkewBound,
		quantum:     opts.Quantum,
		waitTimeout: time.Second,
		journal:     opts.Journal,
		notify:      make(chan struct{}, 1),
		obsReg:      opts.Obs,
		dmi:         opts.DMI,
	}
	d.obs.init(opts.Obs)
	for i, ch := range channels {
		c := &driverCPU{
			d:           d,
			id:          i,
			label:       fmt.Sprintf("driver-kernel cpu%d", i),
			dataW:       ch.Data,
			irqW:        ch.IRQ,
			prefix:      ch.Prefix,
			inPorts:     make(map[string]*sim.IssIn),
			outBindings: make(map[string]*binding),
		}
		if f, ok := ch.Data.(transport.Flusher); ok {
			c.dataF = f
		}
		if f, ok := ch.IRQ.(transport.Flusher); ok {
			c.irqF = f
		}
		c.obs.init(opts.Obs, i)
		for _, s := range ch.Ports {
			name := s.Port // guest-visible name
			full := ch.Prefix + name
			if s.Dir == ToSystemC {
				p, ok := k.IssInPort(full)
				if !ok {
					p = k.NewIssIn(full)
				}
				c.inPorts[name] = p
			} else {
				p, ok := k.IssOutPort(full)
				if !ok {
					p = k.NewIssOut(full)
				}
				spec := s
				spec.Port = full // journal entries carry the kernel name
				b := &binding{spec: spec, outPort: p}
				c.outBindings[name] = b
			}
		}
		if opts.DMI && ch.DMI != nil {
			c.grantWindows(ch.DMI)
		}
		d.cpus = append(d.cpus, c)

		// Reader goroutine: decode frames from this CPU's data socket
		// into the shared inbox, tagged with the CPU id so the drain
		// hook routes them to the right per-CPU state.
		go func(c *driverCPU, r io.Reader) {
			br := bufio.NewReader(r)
			for {
				m, err := ReadMessage(br)
				if err != nil {
					d.mu.Lock()
					c.rdErr = err
					d.mu.Unlock()
					// Wake a conservative wait so it can surface the
					// error instead of sleeping out its timeout.
					select {
					case d.notify <- struct{}{}:
					default:
					}
					return
				}
				m.CPU = c.id
				d.mu.Lock()
				d.inbox = append(d.inbox, m)
				d.mu.Unlock()
				select {
				case d.notify <- struct{}{}:
				default:
				}
			}
		}(c, ch.Data)

		// Teardown ownership: the kernel's finalizers close both channel
		// ends via io.Closer — never via a net.Conn assertion, which
		// would silently skip non-socket channels (the ring transport, a
		// custom io.ReadWriter) and leak their reader goroutines forever.
		if cl, ok := ch.Data.(io.Closer); ok {
			k.AddFinalizer(func() { _ = cl.Close() })
		}
		if cl, ok := ch.IRQ.(io.Closer); ok {
			k.AddFinalizer(func() { _ = cl.Close() })
		}
	}

	k.AddCycleHook(d.drain)
	k.AddEndCycleHook(d.flushInterrupts)
	return d, nil
}

// Stats returns co-simulation activity counters, summed over CPUs.
func (d *DriverKernel) Stats() Stats { return d.stats }

// Err returns the first co-simulation error, if any.
func (d *DriverKernel) Err() error { return d.err }

// Name returns the scheme's canonical name.
func (d *DriverKernel) Name() string { return "driver-kernel" }

// CPUCount returns the number of guest CPUs the scheme drives.
func (d *DriverKernel) CPUCount() int { return len(d.cpus) }

// Detach implements Scheme. The guest runners are owned by the caller
// (they predate the scheme attachment), so there is nothing to quiesce
// — but every granted DMI window is revoked here (the kernel-side
// explicit revocation rule): late guest accesses fall back to the
// message path, the port mirror hooks are removed, and the final
// window counter deltas (including the revocations themselves) are
// flushed into the obs registry before the caller snapshots it.
func (d *DriverKernel) Detach() {
	for _, c := range d.cpus {
		for _, g := range c.grants {
			g.w.Revoke()
			if g.b != nil {
				g.b.outPort.SetOnWrite(nil)
			}
			d.flushGrantCounters(c, g)
		}
	}
}

// Publish implements Scheme: the Driver-Kernel protocol has no
// transport-level totals beyond its live counters, so only the pending
// read backlogs are published (aggregate plus per CPU). The gauge
// handles are resolved at attach time, so publishing into the attach
// registry allocates nothing; a foreign registry falls back to a lookup
// by the precomputed per-CPU name.
func (d *DriverKernel) Publish(r *obs.Registry) {
	total := 0
	for _, c := range d.cpus {
		// Unflushed DMI window deltas land in the attach registry's
		// handles, so an end-of-run snapshot never misses the tail.
		for _, g := range c.grants {
			d.flushGrantCounters(c, g)
		}
		n := len(c.pendingReads)
		total += n
		g := c.obs.pendingReads
		if r != d.obsReg {
			g = r.Gauge(c.obs.pendingReadsName)
		}
		g.Set(uint64(n))
	}
	if r == d.obsReg {
		d.obs.pendingReads.Set(uint64(total))
	} else {
		r.Gauge("driver.pending_reads").Set(uint64(total))
	}
}

// RaiseInterrupt queues an interrupt for CPU 0's guest driver — the
// single-processor entry point; see RaiseInterruptCPU.
func (d *DriverKernel) RaiseInterrupt(id uint32) { d.RaiseInterruptCPU(0, id) }

// RaiseInterruptCPU queues an interrupt for the given CPU's guest
// driver; it is sent on that CPU's interrupt socket at the end of the
// current simulation cycle, per Figure 5 ("before moving to the
// following simulation cycle ... the interrupt is notified to the
// driver"). Models call this from their processes. An out-of-range CPU
// id is recorded as a scheme error.
func (d *DriverKernel) RaiseInterruptCPU(cpu int, id uint32) {
	if cpu < 0 || cpu >= len(d.cpus) {
		if d.err == nil {
			d.err = fmt.Errorf("driver-kernel: interrupt %d raised for unknown cpu%d (%d CPUs attached)", id, cpu, len(d.cpus))
		}
		return
	}
	c := d.cpus[cpu]
	c.intQueue = append(c.intQueue, id)
}

// errf builds a scheme error carrying this CPU's label ("driver-kernel
// cpu0: ...") so multi-CPU failures identify the offending channel.
func (c *driverCPU) errf(format string, args ...any) error {
	return fmt.Errorf("%s: "+format, append([]any{any(c.label)}, args...)...)
}

// grantWindows hands the guest-side bridge one direct window per bound
// port: iss_out bindings get read windows kept coherent by the port's
// write hook, iss_in ports get write windows whose staged stores the
// drain hook reconciles. Every bound port is a protocol data port —
// side-effect-free backing memory — so all of them are DMI-eligible;
// side-effectful device registers never reach this path because they
// are not ports.
// Grant order is sorted by port name: grants append to c.grants and
// register windows with the guest bridge, so map-iteration order would
// leak into reconcile order and the journal.
func (c *driverCPU) grantWindows(granter dev.DMIGranter) {
	outNames := make([]string, 0, len(c.outBindings))
	for name := range c.outBindings {
		outNames = append(outNames, name)
	}
	sort.Strings(outNames)
	for _, name := range outNames {
		b := c.outBindings[name]
		w := dev.NewWindow(name, c.notifyActivity)
		w.Update(b.outPort.Bytes(), b.outPort.Writes())
		b.outPort.SetOnWrite(w.Update)
		granter.GrantDMIWindow(name, w)
		c.grants = append(c.grants, &dmiGrant{w: w, b: b, port: name})
	}
	inNames := make([]string, 0, len(c.inPorts))
	for name := range c.inPorts {
		inNames = append(inNames, name)
	}
	sort.Strings(inNames)
	for _, name := range inNames {
		w := dev.NewWindow(name, c.notifyActivity)
		granter.GrantDMIWindow(name, w)
		c.grants = append(c.grants, &dmiGrant{w: w, in: c.inPorts[name], port: name})
	}
}

// notifyActivity is the window activity callback, invoked from the
// guest thread after every window hit. It marks the CPU for
// reconciliation and wakes a conservative wait, exactly as an arriving
// protocol message would — window hits skip the codec and transport,
// not the lock-step coupling.
func (c *driverCPU) notifyActivity() {
	c.dmiActive.Store(true)
	select {
	case c.d.notify <- struct{}{}:
	default:
	}
}

// reconcileWindows folds guest window activity back into the lock-step
// state at the begin-of-cycle hook: a consumed read generation advances
// the CPU's timeline anchor and marks the guest busy (it is computing
// on the data, like after a DATA reply); staged writes are delivered to
// their iss_in ports at their cycle-stamped target times and settle the
// guest's outstanding work (like a WRITE message). Window counter
// deltas are flushed into the obs registry on the way.
func (d *DriverKernel) reconcileWindows(k *sim.Kernel) {
	if !d.dmi {
		return
	}
	for _, c := range d.cpus {
		if !c.dmiActive.Swap(false) {
			continue
		}
		for _, g := range c.grants {
			if g.b != nil {
				if seq, cycles, ok := g.w.TakeReadAck(); ok {
					t := c.targetTime(cycles)
					c.advanceSync(cycles, t)
					if seq > g.b.consumed {
						g.b.consumed = seq
						g.b.outPort.Consumed()
					}
					d.stats.Transfers++
					c.outstanding = true
					c.outSince = k.Now()
					d.journal.Record(JournalEntry{
						Time: k.Now(), Scheme: "driver-kernel", Dir: "sc->iss",
						Port: c.prefix + g.port, Bytes: len(g.b.outPort.Bytes()), Cycles: uint64(cycles),
					})
				}
			}
			if g.in != nil {
				c.stagedBuf = g.w.TakeStaged(c.stagedBuf[:0])
				for _, sw := range c.stagedBuf {
					t := c.targetTime(sw.Cycles)
					port, data := g.in, sw.Data
					k.CallAt(t, func() { port.Deliver(data) })
					c.advanceSync(sw.Cycles, t)
					d.stats.Transfers++
					c.outstanding = false
					d.journal.Record(JournalEntry{
						Time: t, Scheme: "driver-kernel", Dir: "iss->sc",
						Port: c.prefix + g.port, Bytes: len(sw.Data), Cycles: uint64(sw.Cycles),
					})
				}
			}
			d.flushGrantCounters(c, g)
		}
	}
}

// flushGrantCounters adds the window's counter growth since the last
// flush into the aggregate and per-CPU obs counters.
func (d *DriverKernel) flushGrantCounters(c *driverCPU, g *dmiGrant) {
	hits, misses, revs := g.w.Counters()
	if n := hits - g.lastHits; n > 0 {
		d.obs.dmiHits.Add(n)
		c.obs.dmiHits.Add(n)
		d.stats.DMIHits += n
	}
	if n := misses - g.lastMisses; n > 0 {
		d.obs.dmiMisses.Add(n)
		c.obs.dmiMisses.Add(n)
		d.stats.DMIMisses += n
	}
	if n := revs - g.lastRevs; n > 0 {
		d.obs.dmiRevocations.Add(n)
		c.obs.dmiRevocations.Add(n)
		if d.quantum > 0 {
			// A revoked window forces the guest back onto the message
			// path; re-synchronize early instead of running ahead.
			c.syncBreak = true
		}
	}
	g.lastHits, g.lastMisses, g.lastRevs = hits, misses, revs
}

// targetTime maps a guest cycle stamp to simulated time (32-bit
// wrap-aware).
func (c *driverCPU) targetTime(cycles uint32) sim.Time {
	if c.d.period == 0 {
		return c.d.k.Now()
	}
	delta := cycles - c.syncCycles // wraps correctly in uint32
	return c.syncTime.AddCycles(uint64(delta), c.d.period)
}

func (c *driverCPU) advanceSync(cycles uint32, t sim.Time) {
	c.syncCycles = cycles
	if t.After(c.d.k.Now()) {
		c.syncTime = t
	} else {
		c.syncTime = c.d.k.Now()
	}
}

// quantumSync decides whether this cycle runs the conservative
// synchronization (channel flush + skew-bounded lock-step wait). In
// lock-step mode (quantum == 0) every cycle syncs. In quantum mode the
// sync happens at quantum boundaries — counted as quantum_syncs, once
// per CPU so the aggregate reconciles with the per-CPU sums — or when
// an early-sync break was observed: a guest's non-DMI port access
// (its READ/WRITE message is in the inbox, or a pending READ was just
// served), an interrupt delivery, or a DMI window revocation. Breaks
// are counted per causing CPU as quantum_breaks.
func (d *DriverKernel) quantumSync(k *sim.Kernel) bool {
	if d.quantum == 0 {
		return true
	}
	if now := k.Now(); !now.Before(d.nextQuantum) {
		d.nextQuantum = now.Add(d.quantum)
		for _, c := range d.cpus {
			c.syncBreak = false // the boundary subsumes any pending break
			d.stats.QuantumSyncs++
			d.obs.quantumSyncs.Inc()
			c.obs.quantumSyncs.Inc()
		}
		return true
	}
	// A message sitting in the inbox is a guest port access the drain is
	// about to serve; sync so the lock-step invariants hold around it.
	d.mu.Lock()
	for _, m := range d.inbox {
		d.cpus[m.CPU].syncBreak = true
	}
	d.mu.Unlock()
	due := false
	for _, c := range d.cpus {
		if !c.syncBreak {
			continue
		}
		c.syncBreak = false
		due = true
		d.stats.QuantumBreaks++
		d.obs.quantumBreaks.Inc()
		c.obs.quantumBreaks.Inc()
	}
	return due
}

// inboxReadyFor reports whether the drain would make progress for this
// CPU: a message from it is queued, unreconciled window activity is
// pending, or its reader hit a terminal error.
func (d *DriverKernel) inboxReadyFor(c *driverCPU) bool {
	if c.dmiActive.Load() {
		return true
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if c.rdErr != nil {
		return true
	}
	for _, m := range d.inbox {
		if m.CPU == c.id {
			return true
		}
	}
	return false
}

// lockstepWait enforces the multi-CPU advance rule: the kernel may only
// run up to the minimum target time across CPUs, i.e. no CPU's
// outstanding request is left more than skewBound behind the kernel
// clock. Each lagging CPU stalls the cycle (wall-clock) until its next
// message arrives or the wait times out.
func (d *DriverKernel) lockstepWait(k *sim.Kernel) {
	if d.skewBound == 0 {
		return
	}
	for _, c := range d.cpus {
		if !c.outstanding || k.Now().Before(c.outSince.Add(d.skewBound)) {
			continue
		}
		// A token may be sitting in d.notify from messages that were
		// already drained in a prior cycle; waiting on it would return
		// immediately without new data and silently void the skew bound.
		// Discard it, then re-check the inbox: if the token was in fact
		// fresh, its message is already in the inbox and no wait happens.
		select {
		case <-d.notify:
		default:
		}
		if d.inboxReadyFor(c) {
			continue
		}
		d.obs.skewWaits.Inc()
		c.obs.skewWaits.Inc()
		sp := d.obs.skewWaitNS.Start()
		// The stall-escape timeout is deliberately wall-clock: it only
		// fires when a guest stops responding, i.e. when determinism is
		// already lost, and it must not depend on simulated time that
		// is no longer advancing.
		//cosimvet:ignore detsafe stall-escape timeout is intentionally host wall-clock
		timer := time.NewTimer(d.waitTimeout)
	wait:
		for {
			select {
			case <-d.notify:
				// The token may belong to another CPU's message; only
				// this CPU's traffic (or reader error) ends its wait.
				if d.inboxReadyFor(c) {
					break wait
				}
			case <-timer.C:
				// Give up on this request; don't stall the simulation.
				c.outstanding = false
				d.obs.skewTimeouts.Inc()
				c.obs.skewTimeouts.Inc()
				break wait
			}
		}
		timer.Stop()
		sp.End()
	}
}

// flushChannels pushes buffered frames out of the Flusher-capable
// channel ends at the three hook boundaries — after the reply loops,
// before a conservative wait, after the interrupt fan-out — so a
// buffered DATA reply or interrupt is never left unsent past a point
// the guest may block on it.
func (d *DriverKernel) flushChannels() {
	for _, c := range d.cpus {
		if c.dataF != nil {
			if err := c.dataF.Flush(); err != nil && d.err == nil {
				d.err = c.errf("data socket flush: %w", err)
			}
		}
		if c.irqF != nil {
			if err := c.irqF.Flush(); err != nil && d.err == nil {
				d.err = c.errf("interrupt socket flush: %w", err)
			}
		}
	}
}

// releaseFrom hands the pooled payload buffers of msgs[i:] back to the
// codec pool. Error exits from the drain loop call it so a poisoned
// batch does not leak the buffers of the messages it never processed.
// Releasing by index keeps the pooled pointer and the visible slice
// element in sync (releasing a copy would leave msgs[i].Data dangling).
func releaseFrom(msgs []Message, i int) {
	for ; i < len(msgs); i++ {
		msgs[i].Release()
	}
}

// drain is the begin-of-cycle hook: handle every message that arrived
// since the last cycle (Figure 5: "checks the content of the message to
// be possibly exchanged with the driver"), routed to the per-CPU state
// by the CPU tag stamped at channel ingress.
func (d *DriverKernel) drain(k *sim.Kernel) {
	if d.err != nil {
		// The scheme is already poisoned but the readers may still be
		// decoding; keep the inbox from pinning pooled buffers forever.
		d.mu.Lock()
		stale := d.inbox
		d.inbox = nil
		d.mu.Unlock()
		releaseFrom(stale, 0)
		return
	}
	d.stats.Polls++
	d.obs.polls.Inc()

	// Fold in window activity that arrived since the last cycle, before
	// serving pending READs: a staged write may be what a pending READ's
	// model is waiting on.
	d.reconcileWindows(k)

	// Serve pending READs whose port has been written since.
	for _, c := range d.cpus {
		if len(c.pendingReads) == 0 {
			continue
		}
		rest := c.pendingReads[:0]
		for _, b := range c.pendingReads {
			if b.outPort.Writes() > b.consumed {
				d.reply(c, b)
			} else {
				rest = append(rest, b)
			}
		}
		c.pendingReads = rest
	}

	// Conservative sync: wait for lagging guests instead of letting
	// simulated time race past an outstanding request. Buffered replies
	// must be on the wire first, or the wait would stall on a guest
	// that is itself waiting for an unflushed frame. Under temporal
	// decoupling the sync runs only at quantum boundaries and breaks;
	// mid-quantum cycles let the kernel run ahead of the guests.
	if d.quantumSync(k) {
		d.flushChannels()
		d.lockstepWait(k)
	}

	d.mu.Lock()
	msgs := d.inbox
	d.inbox = nil
	d.mu.Unlock()

	// A conservative wait may have ended on window activity rather than
	// a message; reconcile again so that activity lands this cycle.
	d.reconcileWindows(k)

	for _, c := range d.cpus {
		c.hadMsg = false
	}
	for _, m := range msgs {
		d.cpus[m.CPU].hadMsg = true
	}
	// Surface read errors once a CPU's stream is dry. A clean EOF is a
	// normal guest shutdown; an unexpected EOF mid-message (or any
	// wrapped error) is a real connection failure.
	for _, c := range d.cpus {
		d.mu.Lock()
		err := c.rdErr
		d.mu.Unlock()
		if err == nil || c.hadMsg || d.err != nil {
			continue
		}
		if !errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			d.err = c.errf("data socket: %w", err)
		}
	}

	for i := range msgs {
		m := msgs[i]
		c := d.cpus[m.CPU]
		d.stats.Messages++
		d.obs.messages.Inc()
		c.obs.messages.Inc()
		switch m.Type {
		case MsgWrite:
			d.obs.writes.Inc()
			port, ok := c.inPorts[m.Port]
			if !ok {
				d.err = c.errf("WRITE to unknown port %q", m.Port)
				releaseFrom(msgs, i)
				return
			}
			t := c.targetTime(m.Cycles)
			msg := m
			k.CallAt(t, func() {
				port.Deliver(msg.Data)
				msg.Release() // Deliver copied; recycle the codec buffer
			})
			c.advanceSync(m.Cycles, t)
			d.stats.Transfers++
			c.outstanding = false
			d.journal.Record(JournalEntry{
				Time: t, Scheme: "driver-kernel", Dir: "iss->sc",
				Port: c.prefix + m.Port, Bytes: len(m.Data), Cycles: uint64(m.Cycles),
			})
		case MsgRead:
			d.obs.reads.Inc()
			b, ok := c.outBindings[m.Port]
			if !ok {
				d.err = c.errf("READ of unknown port %q", m.Port)
				releaseFrom(msgs, i)
				return
			}
			c.outstanding = false // the guest is alive and asking
			c.advanceSync(m.Cycles, c.targetTime(m.Cycles))
			if b.outPort.Writes() > b.consumed {
				d.reply(c, b)
			} else {
				c.pendingReads = append(c.pendingReads, b)
			}
			// A READ carries no payload, but a malformed frame might;
			// releasing here keeps the lifecycle uniform per message.
			msgs[i].Release()
		default:
			d.err = c.errf("unexpected message type %d from driver", m.Type)
			releaseFrom(msgs, i)
			return
		}
	}
	d.flushChannels()
}

// reply sends the current iss_out port value as a DATA message followed
// by a DATA_READY interrupt so a WFI-parked guest wakes up.
func (d *DriverKernel) reply(c *driverCPU, b *binding) {
	if err := WriteMessage(c.dataW, Message{Type: MsgData, Data: b.outPort.Bytes()}); err != nil {
		d.err = c.errf("data socket (port %q): %w", b.spec.Port, err)
		return
	}
	b.consumed = b.outPort.Writes()
	b.outPort.Consumed()
	if d.dmi {
		// The message path consumed this generation; keep the read
		// window from re-serving it as fresh.
		for _, g := range c.grants {
			if g.b == b {
				g.w.SyncConsumed(b.consumed)
				break
			}
		}
	}
	d.stats.Transfers++
	d.obs.replies.Inc()
	c.outstanding = true
	c.outSince = d.k.Now()
	if d.quantum > 0 {
		// A served READ is a non-DMI port access: synchronize around it
		// rather than letting the kernel run ahead of the reply.
		c.syncBreak = true
	}
	d.journal.Record(JournalEntry{
		Time: d.k.Now(), Scheme: "driver-kernel", Dir: "sc->iss",
		Port: b.spec.Port, Bytes: len(b.outPort.Bytes()),
	})
	// The guest idled while waiting; re-anchor its timeline.
	c.syncTime = d.k.Now()
	if err := c.sendInterrupt(IntDataReady); err != nil {
		d.err = err
	}
}

// sendInterrupt writes one 4-byte notification through this CPU's
// reusable scratch buffer. Only called from kernel context (cycle
// hooks), so the scratch needs no locking.
func (c *driverCPU) sendInterrupt(id uint32) error {
	binary.LittleEndian.PutUint32(c.irqBuf[:], id)
	if _, err := c.irqW.Write(c.irqBuf[:]); err != nil {
		return c.errf("interrupt socket (int %d): %w", id, err)
	}
	return nil
}

// flushInterrupts is the end-of-cycle hook of Figure 5, fanned out per
// CPU: each queued interrupt goes to its own CPU's interrupt socket,
// never to a neighbour's.
func (d *DriverKernel) flushInterrupts(k *sim.Kernel) {
	if d.err != nil {
		return
	}
	for _, c := range d.cpus {
		if len(c.intQueue) == 0 {
			continue
		}
		for _, id := range c.intQueue {
			if err := c.sendInterrupt(id); err != nil {
				d.err = err
				return
			}
			d.stats.IntsNotified++
			d.obs.interrupts.Inc()
			c.obs.interrupts.Inc()
		}
		c.intQueue = c.intQueue[:0]
		// An interrupt usually solicits guest work; treat it as a
		// request for skew-bound purposes.
		c.outstanding = true
		c.outSince = k.Now()
		if d.quantum > 0 {
			// Interrupt delivery ends this CPU's decoupled stretch: the
			// next drain must re-synchronize with the guest's reaction.
			c.syncBreak = true
		}
	}
	d.flushChannels()
}

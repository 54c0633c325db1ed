package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cosim/internal/dev"
	"cosim/internal/obs"
	"cosim/internal/sim"
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

	skewBound   sim.Time
	waitTimeout time.Duration // how long a conservative wait may block

	mu     sync.Mutex
	inbox  []Message     // CPU-tagged, drained by the begin-of-cycle hook; guarded by mu
	spare  []Message     // the drained inbox buffer, reused by the next swap (kernel context)
	notify chan struct{} // signalled by a reader when messages arrive

	// queued and rdErrs let an idle drain skip d.mu. Readers set them
	// while holding d.mu, right after appending to the inbox or
	// recording a reader error, so anything lockstepWait saw under the
	// lock is also visible to the drain of the same cycle. queued is
	// cleared by the drain that takes the inbox; rdErrs is sticky.
	queued atomic.Bool
	rdErrs atomic.Bool

	// timer bounds each conservative wait; one timer is reused across
	// waits (kernel context only).
	timer *time.Timer

	cpus []*driverCPU

	journal *Journal

	err   error
	stats Stats
	obs   driverObs
}

// driverCPU is the per-processor half of the scheme: one channel pair,
// one port namespace, one timeline, one interrupt queue.
type driverCPU struct {
	d     *DriverKernel
	id    int
	label string // "driver-kernel cpu0", the error/metric prefix

	dataW io.Writer
	irqW  io.Writer

	// Port routing: the guest names ports without knowing which CPU it
	// is ("pkt", "csum"); the channel prefix maps those names onto this
	// CPU's kernel ports ("cpu1.pkt"). Keys are guest-visible names;
	// the ports carry the kernel names.
	inPorts     map[string]*sim.IssIn
	outBindings map[string]*binding

	// clock maps the guest's cycle stamps to simulated time. It also
	// marks a request to the guest (a READ reply or a notified
	// interrupt) outstanding: when skewBound is non-zero, the kernel
	// waits (wall-clock) for this guest's next message rather than
	// racing simulated time past it.
	clock guestClock

	pendingReads []*binding
	intQueue     []uint32
	irqBuf       [4]byte // scratch for interrupt notifications (kernel context only)

	rdErr  error // reader goroutine's terminal error; guarded by d.mu, flagged by d.rdErrs
	hadMsg bool  // batch scratch: a message from this CPU was drained

	dmi *dmiWindows // nil when DMI is off

	obs driverCPUObs
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
	dmi          dmiCounters
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
	o.dmi = dmiCounters{r.Counter("driver.dmi_hits"), r.Counter("driver.dmi_misses"), r.Counter("driver.dmi_revocations")}
}

// driverCPUObs is the per-CPU counter set ("driver.cpu0.messages", ...)
// published next to the aggregates so multi-CPU runs show per-processor
// traffic, skew-wait stalls and interrupt fan-out in `benchtab -json`.
type driverCPUObs struct {
	messages     *obs.Counter
	interrupts   *obs.Counter
	skewWaits    *obs.Counter
	skewTimeouts *obs.Counter
	pendingReads *obs.Gauge
	dmi          dmiCounters
}

func (o *driverCPUObs) init(r *obs.Registry, id int) {
	o.messages = r.Counter(fmt.Sprintf("driver.cpu%d.messages", id))
	o.interrupts = r.Counter(fmt.Sprintf("driver.cpu%d.interrupts", id))
	o.skewWaits = r.Counter(fmt.Sprintf("driver.cpu%d.skew_waits", id))
	o.skewTimeouts = r.Counter(fmt.Sprintf("driver.cpu%d.skew_wait_timeouts", id))
	o.pendingReads = r.Gauge(fmt.Sprintf("driver.cpu%d.pending_reads", id))
	o.dmi = dmiCounters{
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_hits", id)),
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_misses", id)),
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_revocations", id)),
	}
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
	// configuration shared by all schemes.
	CommonOptions

	// DMI grants direct memory windows over each channel's bound ports
	// (requires the channel to carry a granter). Off by default.
	DMI bool
}

// NewDriverKernel attaches the scheme with one channel pair per CPU —
// the multi-processor SoC configuration of the paper's title. Channel i
// serves CPU i; interrupt routing and message drains address CPUs by
// that index.
func NewDriverKernel(k *sim.Kernel, channels []DriverChannel, opts DriverKernelOptions) (*DriverKernel, error) {
	if len(channels) == 0 {
		return nil, errors.New("driver-kernel: at least one CPU channel is required")
	}
	d := &DriverKernel{
		k:           k,
		skewBound:   opts.SkewBound,
		waitTimeout: time.Second,
		journal:     opts.Journal,
		notify:      make(chan struct{}, 1),
	}
	d.obs.init(opts.Obs)
	for i, ch := range channels {
		c := &driverCPU{
			d:           d,
			id:          i,
			label:       fmt.Sprintf("driver-kernel cpu%d", i),
			dataW:       ch.Data,
			irqW:        ch.IRQ,
			inPorts:     make(map[string]*sim.IssIn),
			outBindings: make(map[string]*binding),
			clock:       guestClock{k: k, period: opts.CPUPeriod},
		}
		c.obs.init(opts.Obs, i)
		for _, s := range ch.Ports {
			name := s.Port // guest-visible name
			full := ch.Prefix + name
			if s.Dir == ToSystemC {
				c.inPorts[name] = issIn(k, full)
			} else {
				spec := s
				spec.Port = full // journal entries carry the kernel name
				c.outBindings[name] = &binding{spec: spec, outPort: issOut(k, full)}
			}
		}
		if opts.DMI && ch.DMI != nil {
			c.dmi = grantWindows(c, ch.DMI)
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
					d.rdErrs.Store(true)
					d.mu.Unlock()
					// Wake a conservative wait so it can surface the
					// error instead of sleeping out its timeout.
					d.wake()
					return
				}
				m.CPU = c.id
				d.mu.Lock()
				d.inbox = append(d.inbox, m)
				d.queued.Store(true)
				d.mu.Unlock()
				d.wake()
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

// Detach implements Scheme. The guest runners are owned by the caller
// (they predate the scheme attachment), so there is nothing to quiesce
// — but every granted DMI window is revoked here (see
// dmiWindows.revoke) before the caller snapshots the counters.
func (d *DriverKernel) Detach() {
	for _, c := range d.cpus {
		c.dmi.revoke()
	}
}

// Publish implements Scheme: the Driver-Kernel protocol has no
// transport-level totals beyond its live counters, so only the pending
// read backlogs are published (aggregate plus per CPU), with the
// unflushed DMI counter growth. The gauge handles are resolved at
// attach time, so publishing allocates nothing.
func (d *DriverKernel) Publish() {
	total := 0
	for _, c := range d.cpus {
		c.dmi.flush()
		n := len(c.pendingReads)
		total += n
		c.obs.pendingReads.Set(uint64(n))
	}
	d.obs.pendingReads.Set(uint64(total))
}

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

// wake signals d.notify without blocking: a token already pending
// wakes the wait as well.
func (d *DriverKernel) wake() {
	select {
	case d.notify <- struct{}{}:
	default:
	}
}

// inboxReadyFor reports whether the drain would make progress for this
// CPU: a message from it is queued, unreconciled window activity is
// pending, or its reader hit a terminal error.
func (d *DriverKernel) inboxReadyFor(c *driverCPU) bool {
	if c.dmi.ready() {
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
		if !c.clock.overdue(d.skewBound) {
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
		if d.timer == nil {
			//cosimvet:ignore detsafe stall-escape timeout is intentionally host wall-clock
			d.timer = time.NewTimer(d.waitTimeout)
		} else {
			d.timer.Reset(d.waitTimeout)
		}
	wait:
		for {
			select {
			case <-d.notify:
				// The token may belong to another CPU's message; only
				// this CPU's traffic (or reader error) ends its wait.
				if d.inboxReadyFor(c) {
					if !d.timer.Stop() {
						// It fired as the wait ended: drop the tick so
						// the next Reset starts clean.
						select {
						case <-d.timer.C:
						default:
						}
					}
					break wait
				}
			case <-d.timer.C:
				// Give up on this request; don't stall the simulation.
				c.clock.settle()
				d.obs.skewTimeouts.Inc()
				c.obs.skewTimeouts.Inc()
				break wait
			}
		}
		sp.End()
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
	for _, c := range d.cpus {
		c.dmi.reconcile()
	}

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
	// simulated time race past an outstanding request.
	d.lockstepWait(k)

	// Take the inbox, swapping in the buffer drained last time. An idle
	// cycle (nothing queued) takes no lock.
	var msgs []Message
	if d.queued.Swap(false) {
		d.mu.Lock()
		msgs = d.inbox
		d.inbox, d.spare = d.spare[:0], nil
		d.mu.Unlock()
	}

	// A conservative wait may have ended on window activity rather than
	// a message; reconcile again so that activity lands this cycle.
	for _, c := range d.cpus {
		c.dmi.reconcile()
	}

	// Surface read errors once a CPU's stream is dry. A clean EOF is a
	// normal guest shutdown; an unexpected EOF mid-message (or any
	// wrapped error) is a real connection failure.
	if d.rdErrs.Load() {
		for _, c := range d.cpus {
			c.hadMsg = false
		}
		for _, m := range msgs {
			d.cpus[m.CPU].hadMsg = true
		}
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
			c.store(port, m)
		case MsgRead:
			d.obs.reads.Inc()
			b, ok := c.outBindings[m.Port]
			if !ok {
				d.err = c.errf("READ of unknown port %q", m.Port)
				releaseFrom(msgs, i)
				return
			}
			c.clock.settle() // the guest is alive and asking
			c.clock.take(c.clock.widen(m.Cycles))
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
	if msgs != nil {
		clear(msgs)
		d.spare = msgs[:0]
	}
}

// store delivers a guest store to its iss_in port at the simulated
// time of its cycle stamp, and settles the guest's outstanding request.
// m is a WRITE message, or a store a DMI window staged (a WRITE that
// skipped the codec); its pooled payload is recycled once delivered.
func (c *driverCPU) store(port *sim.IssIn, m Message) {
	t := c.clock.take(c.clock.widen(m.Cycles))
	data, pooled := m.Data, m.pooled
	c.d.k.CallAt(t, func() {
		port.Deliver(data)
		releaseDataBuf(pooled) // Deliver copied; recycle the codec buffer
	})
	c.clock.settle()
	c.d.stats.Transfers++
	c.d.journal.Record(JournalEntry{
		Time: t, Scheme: "driver-kernel", Dir: "iss->sc",
		Port: port.Name(), Bytes: len(m.Data), Cycles: uint64(m.Cycles),
	})
}

// consume records that the guest took generation seq of b's iss_out
// port, from a DATA reply or through a DMI read window (stamped with
// the guest's cycles): the guest now computes on the data, so a request
// is outstanding.
func (c *driverCPU) consume(b *binding, seq uint64, cycles uint32) {
	if seq > b.consumed {
		b.consumed = seq
		b.outPort.Consumed()
	}
	c.d.stats.Transfers++
	c.clock.request(c.d.skewBound)
	c.d.journal.Record(JournalEntry{
		Time: c.d.k.Now(), Scheme: "driver-kernel", Dir: "sc->iss",
		Port: b.spec.Port, Bytes: len(b.outPort.Bytes()), Cycles: uint64(cycles),
	})
}

// reply sends the current iss_out port value as a DATA message followed
// by a DATA_READY interrupt so a WFI-parked guest wakes up.
func (d *DriverKernel) reply(c *driverCPU, b *binding) {
	if err := WriteMessage(c.dataW, Message{Type: MsgData, Data: b.outPort.Bytes()}); err != nil {
		d.err = c.errf("data socket (port %q): %w", b.spec.Port, err)
		return
	}
	c.consume(b, b.outPort.Writes(), 0)
	c.dmi.consumed(b)
	d.obs.replies.Inc()
	// The guest idled while waiting; re-anchor its timeline.
	c.clock.idle()
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
		c.clock.request(d.skewBound)
	}
}

package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"cosim/internal/dev"
	"cosim/internal/iss"
	"cosim/internal/obs"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// DriverKernel is the paper's second proposed scheme (§4): the guest OS
// device driver masters the co-simulation, exchanging binary READ/WRITE
// messages with the SystemC kernel over the data socket (port 4444 in
// the paper) while the kernel notifies interrupts over the interrupt
// socket (port 4445). The scheduler modifications of Figure 5 map to
// an end-of-cycle hook (serve pending READs, send queued interrupt
// notifications) and a horizon hook that runs each guest.
//
// Guests are paced in simulated time by a conservative grant. Before
// time advances, the kernel runs each guest, on the kernel's own
// goroutine, up to the horizon (the kernel's next timed event): nothing
// in the model can reach the guest before then. A guest stops early when it sends a
// frame or uses a DMI window; the kernel handles what it sent at the
// simulated time of the guest's cycle count at the send, which is never
// behind now, and runs the guest on once that time point is done. A
// guest idling in WFI spends its cycles up to the horizon. So outcomes
// depend on spec and seed only, not on the host, the transport or the
// Go scheduler (see DESIGN.md §5.2).
//
// The scheme scales to a multi-processor SoC: each guest CPU owns one
// data/interrupt channel pair (the paper's 4444/4445 sockets,
// parameterized per CPU), its frames are read from its own channel,
// and every CPU is granted the same horizon (DESIGN.md §5.6).
type DriverKernel struct {
	k    *sim.Kernel
	cpus []*driverCPU

	journal *Journal

	err   error
	stats Stats
	obs   driverObs
}

// ErrDeliveryTimeout reports bytes that did not get through a
// Driver-Kernel channel within deliveryTimeout of wall time: the frames
// a guest sent that the kernel could not read, the replies and
// interrupts the kernel could not write, or those the guest's device
// could not take. The guest's own frame writes, inside Guest.RunTo, are
// not bounded.
var ErrDeliveryTimeout = errors.New("bytes not through within the wall timeout")

// deliveryTimeout bounds each read of a channel's bytes and each of the
// kernel's writes (at most twice it: see transport.Watchdog). A read's
// bytes were written before it starts, and a write must not wait for
// its reader, so on a working channel the bound never shows in an
// outcome.
const deliveryTimeout = time.Second

// Guest is the software simulator behind one Driver-Kernel channel.
// The kernel runs it on its own goroutine; *dev.Platform implements it.
type Guest interface {
	// RunTo runs the guest until its cycle count reaches limit
	// (iss.StopBudget), or until it has flushed a frame or used a DMI
	// window (iss.StopYield), halted or failed. Idle cycles count.
	RunTo(limit uint64) iss.Stop
	// Cycles returns the guest's cycle count.
	Cycles() uint64
	// Sent returns how many bytes the guest has written to its data
	// socket.
	Sent() uint64
	// Receive takes data bytes off the guest's data socket and irq
	// bytes off its interrupt socket, on the caller's goroutine.
	Receive(data, irq uint64) error
}

// driverCPU is the per-processor half of the scheme: one channel pair,
// one port namespace, one timeline, one interrupt queue.
type driverCPU struct {
	d     *DriverKernel
	id    int
	label string // "driver-kernel cpu0", the error/metric prefix

	guest Guest
	done  bool // the guest halted: it is not run again

	// The kernel writes DATA replies to data and interrupt ids to irqW,
	// and reads the guest's frames from data through br, all inline:
	// each side reads what the other wrote, after it was written.
	data io.Writer
	irqW io.Writer
	br   *bufio.Reader
	// toData and toIRQ count the bytes written to the guest since it
	// last took them; got counts the bytes of its frames read so far.
	toData, toIRQ, got uint64
	// dog ends a read or write that lasts deliveryTimeout by closing
	// the channel.
	dog *transport.Watchdog

	// Port routing: the guest names ports without knowing which CPU it
	// is ("pkt", "csum"); the channel prefix maps those names onto this
	// CPU's kernel ports ("cpu1.pkt"). Keys are guest-visible names;
	// the ports carry the kernel names.
	inPorts     map[string]*sim.IssIn
	outBindings map[string]*binding

	// clock maps the guest's cycle count to simulated time, anchored
	// where the scheme attached.
	clock guestClock

	// frames holds what the guest sent at its latest stop, handled in
	// order by handle at the time it sent them.
	frames []frame
	handle func() // handleFrames, bound once: scheduling it allocates nothing

	pendingReads []*binding
	intQueue     []uint32
	irqBuf       [4]byte // scratch for interrupt notifications (kernel context only)

	dmi *dmiWindows // nil when DMI is off

	obs driverCPUObs
}

// frame is one thing a guest sent: a frame from its data socket, a
// store a DMI write window staged (as a WRITE), or a generation it took
// through a DMI read window (ack set).
type frame struct {
	Message
	ack *dmiGrant
	seq uint64
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
	waitNS       *obs.Histogram // reads of a channel's bytes, a sample of them timed
	inlineReads  sampledWait
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
	o.waitNS = r.Histogram("driver.delivery_wait_ns")
	o.pendingReads = r.Gauge("driver.pending_reads")
	o.dmi = dmiCounters{r.Counter("driver.dmi_hits"), r.Counter("driver.dmi_misses"), r.Counter("driver.dmi_revocations")}
}

// driverCPUObs is the per-CPU counter set ("driver.cpu0.messages", ...)
// published next to the aggregates so multi-CPU runs show per-processor
// traffic and interrupt fan-out in `benchtab -json`.
type driverCPUObs struct {
	messages     *obs.Counter
	interrupts   *obs.Counter
	pendingReads *obs.Gauge
	dmi          dmiCounters
}

func (o *driverCPUObs) init(r *obs.Registry, id int) {
	o.messages = r.Counter(fmt.Sprintf("driver.cpu%d.messages", id))
	o.interrupts = r.Counter(fmt.Sprintf("driver.cpu%d.interrupts", id))
	o.pendingReads = r.Gauge(fmt.Sprintf("driver.cpu%d.pending_reads", id))
	o.dmi = dmiCounters{
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_hits", id)),
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_misses", id)),
		r.Counter(fmt.Sprintf("driver.cpu%d.dmi_revocations", id)),
	}
}

// DriverChannel is one CPU's co-simulation transport: the kernel-side
// ends of its data and interrupt sockets, the guest behind them, plus
// the iss ports its driver may address. Ports are declared with
// guest-visible names; Prefix maps them onto the kernel's port registry
// (a multi-CPU run prefixes each CPU's ports "cpu0.", "cpu1.", ... so N
// identical guest images can attach to one kernel without colliding).
type DriverChannel struct {
	Data   io.ReadWriter
	IRQ    io.Writer
	Prefix string
	Ports  []VarBinding

	// Guest is the software simulator at the other end of Data and IRQ,
	// which the kernel runs. Required. The kernel writes to the guest
	// and then has it read, and the guest writes frames that the kernel
	// then reads, all on the kernel's goroutine, so writes on Data and
	// IRQ and on the guest's data end must not wait for their reader
	// (transport.WriteAhead).
	Guest Guest

	// DMI, when non-nil and DriverKernelOptions.DMI is set, is the grant
	// surface of this CPU's guest-side bridge device (its Platform or
	// CosimDev): the kernel grants it a direct window per bound port so
	// guest accesses to side-effect-free port memory bypass the message
	// protocol. Channels without a granter simply never hit.
	DMI dev.DMIGranter
}

// DriverKernelOptions configures the scheme.
type DriverKernelOptions struct {
	// CommonOptions carries the timing, journal and observability
	// configuration shared by all schemes. CPUPeriod is required: it
	// paces the guests.
	CommonOptions

	// DMI grants direct memory windows over each channel's bound ports
	// (requires the channel to carry a granter). Off by default.
	DMI bool
}

// NewDriverKernel attaches the scheme with one channel pair per CPU —
// the multi-processor SoC configuration of the paper's title. Channel i
// serves CPU i; interrupt routing and message handling address CPUs by
// that index.
func NewDriverKernel(k *sim.Kernel, channels []DriverChannel, opts DriverKernelOptions) (*DriverKernel, error) {
	if len(channels) == 0 {
		return nil, errors.New("driver-kernel: at least one CPU channel is required")
	}
	if opts.CPUPeriod == 0 {
		return nil, errors.New("driver-kernel: a CPU period is required to pace the guests")
	}
	for i, ch := range channels {
		if ch.Guest == nil {
			return nil, fmt.Errorf("driver-kernel: channel %d has no guest", i)
		}
	}
	d := &DriverKernel{k: k, journal: opts.Journal}
	d.obs.init(opts.Obs)
	for i, ch := range channels {
		c := &driverCPU{
			d:           d,
			id:          i,
			label:       fmt.Sprintf("driver-kernel cpu%d", i),
			guest:       ch.Guest,
			data:        ch.Data,
			irqW:        ch.IRQ,
			br:          bufio.NewReader(ch.Data),
			inPorts:     make(map[string]*sim.IssIn),
			outBindings: make(map[string]*binding),
			clock:       guestClock{k: k, period: opts.CPUPeriod, cycles: ch.Guest.Cycles(), at: k.Now()},
		}
		c.handle = c.handleFrames
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

		// Teardown ownership: the kernel's finalizers close both channel
		// ends via io.Closer — never via a net.Conn assertion, which
		// would silently skip non-socket channels (the ring transport, a
		// custom io.ReadWriter). Closing them is also how the watchdog
		// ends a read or write that lasts too long: a close fails the
		// reads and writes pending on either end.
		var closers []io.Closer
		for _, ep := range []any{ch.Data, ch.IRQ} {
			if cl, ok := ep.(io.Closer); ok {
				closers = append(closers, cl)
				k.AddFinalizer(func() { _ = cl.Close() })
			}
		}
		c.dog = transport.NewWatchdog(deliveryTimeout, func() {
			for _, cl := range closers {
				_ = cl.Close()
			}
		})
		k.AddFinalizer(c.dog.Stop)
	}

	k.AddEndCycleHook(d.notify)
	k.AddHorizonHook(d.grant)
	return d, nil
}

// Stats returns co-simulation activity counters, summed over CPUs.
func (d *DriverKernel) Stats() Stats { return d.stats }

// Err returns the first co-simulation error, if any.
func (d *DriverKernel) Err() error { return d.err }

// Name returns the scheme's canonical name.
func (d *DriverKernel) Name() string { return "driver-kernel" }

// Detach implements Scheme. The guests run only inside the kernel's
// horizon hook, so none is running once the kernel returns; Detach
// revokes every granted DMI window (see dmiWindows.revoke) before the
// caller snapshots the counters, and hands back the payload buffers of
// frames the run ended before handling.
func (d *DriverKernel) Detach() {
	for _, c := range d.cpus {
		c.dmi.revoke()
		for i := range c.frames {
			c.frames[i].Release()
		}
		c.frames = c.frames[:0]
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

// fail records the scheme's first error and stops the kernel.
func (d *DriverKernel) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.k.Stop()
}

// grant is the horizon hook (Figure 5's "checks the content of the
// message to be possibly exchanged with the driver", turned around):
// nothing in the model happens before horizon, so each guest runs up
// to it. Every CPU gets the same horizon, so the order the CPUs run in
// does not change what any of them sees.
func (d *DriverKernel) grant(k *sim.Kernel, horizon sim.Time) {
	if d.err != nil {
		return
	}
	d.stats.Polls++
	d.obs.polls.Inc()
	for _, c := range d.cpus {
		if err := c.run(horizon); err != nil {
			d.fail(err)
			return
		}
	}
}

// run runs the guest up to horizon, once its device has taken every
// byte the kernel wrote to it, and collects what it sent if it stopped
// for that. A guest whose latest frames are not handled yet is ahead
// of horizon and does not run.
func (c *driverCPU) run(horizon sim.Time) error {
	limit := c.clock.cyclesAt(horizon)
	if c.done || c.guest.Cycles() >= limit {
		return nil
	}
	if c.toData > 0 || c.toIRQ > 0 {
		if err := c.bounded("guest device", func() error { return c.guest.Receive(c.toData, c.toIRQ) }); err != nil {
			return err
		}
		c.toData, c.toIRQ = 0, 0
	}
	switch stop := c.guest.RunTo(limit); stop {
	case iss.StopBudget:
		return nil
	case iss.StopYield:
		return c.collect()
	case iss.StopHalt:
		c.done = true
		return nil
	default:
		return c.errf("guest stopped: %v", stop)
	}
}

// bounded runs read, a read of bytes the other side has written, under
// the CPU's watchdog (see watched), times it into
// driver.delivery_wait_ns, and names what was read in its error.
func (c *driverCPU) bounded(what string, read func() error) error {
	o := &c.d.obs
	sp := o.inlineReads.start(o.waitNS)
	err := watched(c.dog, read)
	sp.End()
	if err != nil {
		return c.errf("%s: %w", what, err)
	}
	return nil
}

// watched runs op, a read or a write of a channel, under dog: an op
// the watchdog ended fails with ErrDeliveryTimeout.
func watched(dog *transport.Watchdog, op func() error) error {
	dog.Arm()
	err := op()
	if dog.Disarm() {
		return fmt.Errorf("%w (%v; %v)", ErrDeliveryTimeout, deliveryTimeout, err)
	}
	return err
}

// collect reads what the guest sent at the stop it just made, every
// frame it flushed and its DMI window activity, and schedules its
// handling at the simulated time of the guest's cycle count.
func (c *driverCPU) collect() error {
	c.dmi.fold()
	for sent := c.guest.Sent(); c.got < sent; {
		var m Message
		if err := c.bounded("data socket", func() (err error) {
			m, err = ReadMessage(c.br)
			return err
		}); err != nil {
			return err
		}
		c.got += uint64(m.wireLen())
		c.d.stats.Messages++
		c.d.obs.messages.Inc()
		c.obs.messages.Inc()
		c.frames = append(c.frames, frame{Message: m})
	}
	if len(c.frames) > 0 {
		c.d.k.CallAt(c.clock.timeOf(c.guest.Cycles()), c.handle)
	}
	return nil
}

// handleFrames handles the guest's frames at the time it sent them.
func (c *driverCPU) handleFrames() {
	d := c.d
	for i := range c.frames {
		f := &c.frames[i]
		if d.err == nil {
			if err := c.handleFrame(f); err != nil {
				d.fail(err)
			}
		}
		f.Release()
	}
	clear(c.frames)
	c.frames = c.frames[:0]
}

// handleFrame handles one frame: a WRITE delivers to its iss_in port, a
// READ is answered at once if its iss_out port holds fresh data and is
// otherwise served once the port is written, and a DMI read records the
// generation the guest took.
func (c *driverCPU) handleFrame(f *frame) error {
	if f.ack != nil {
		c.consume(f.ack.b, f.seq, f.Cycles)
		return nil
	}
	switch f.Type {
	case MsgWrite:
		c.d.obs.writes.Inc()
		port, ok := c.inPorts[f.Port]
		if !ok {
			return c.errf("WRITE to unknown port %q", f.Port)
		}
		c.store(port, f.Message)
	case MsgRead:
		c.d.obs.reads.Inc()
		b, ok := c.outBindings[f.Port]
		if !ok {
			return c.errf("READ of unknown port %q", f.Port)
		}
		if b.outPort.Writes() > b.consumed {
			return c.reply(b)
		}
		c.pendingReads = append(c.pendingReads, b)
	default:
		return c.errf("unexpected message type %d from driver", f.Type)
	}
	return nil
}

// store delivers a guest store to its iss_in port now. m is a WRITE
// message, or a store a DMI window staged (a WRITE that skipped the
// codec); the port copies its payload.
func (c *driverCPU) store(port *sim.IssIn, m Message) {
	port.Deliver(m.Data)
	c.d.stats.Transfers++
	c.d.journal.Record(JournalEntry{
		Time: c.d.k.Now(), Scheme: "driver-kernel", Dir: "iss->sc",
		Port: port.Name(), Bytes: len(m.Data), Cycles: uint64(m.Cycles),
	})
}

// consume records that the guest took generation seq of b's iss_out
// port, from a DATA reply or through a DMI read window (stamped with
// the guest's cycles).
func (c *driverCPU) consume(b *binding, seq uint64, cycles uint32) {
	if seq > b.consumed {
		b.consumed = seq
		b.outPort.Consumed()
	}
	c.d.stats.Transfers++
	c.d.journal.Record(JournalEntry{
		Time: c.d.k.Now(), Scheme: "driver-kernel", Dir: "sc->iss",
		Port: b.spec.Port, Bytes: len(b.outPort.Bytes()), Cycles: uint64(cycles),
	})
}

// reply sends the current iss_out port value as a DATA message followed
// by a DATA_READY interrupt so a WFI-parked guest wakes up.
func (c *driverCPU) reply(b *binding) error {
	m := Message{Type: MsgData, Data: b.outPort.Bytes()}
	if err := watched(c.dog, func() error { return WriteMessage(c.data, m) }); err != nil {
		return c.errf("data socket (port %q): %w", b.spec.Port, err)
	}
	c.toData += uint64(m.wireLen())
	c.consume(b, b.outPort.Writes(), 0)
	c.dmi.consumed(b)
	c.d.obs.replies.Inc()
	return c.sendInterrupt(IntDataReady)
}

// sendInterrupt writes one 4-byte notification through this CPU's
// reusable scratch buffer. Only called from kernel context, so the
// scratch needs no locking.
func (c *driverCPU) sendInterrupt(id uint32) error {
	binary.LittleEndian.PutUint32(c.irqBuf[:], id)
	if err := watched(c.dog, func() error {
		_, err := c.irqW.Write(c.irqBuf[:])
		return err
	}); err != nil {
		return c.errf("interrupt socket (int %d): %w", id, err)
	}
	c.toIRQ += uint64(len(c.irqBuf))
	return nil
}

// notify is the end-of-cycle hook of Figure 5, fanned out per CPU: it
// answers each pending READ whose port was written during this time
// point, then sends each queued interrupt to its own CPU's interrupt
// socket, never to a neighbour's.
func (d *DriverKernel) notify(k *sim.Kernel) {
	if d.err != nil {
		return
	}
	for _, c := range d.cpus {
		if err := c.notify(); err != nil {
			d.fail(err)
			return
		}
	}
}

func (c *driverCPU) notify() error {
	if len(c.pendingReads) > 0 {
		rest := c.pendingReads[:0]
		for _, b := range c.pendingReads {
			if b.outPort.Writes() <= b.consumed {
				rest = append(rest, b)
			} else if err := c.reply(b); err != nil {
				return err
			}
		}
		c.pendingReads = rest
	}
	for _, id := range c.intQueue {
		if err := c.sendInterrupt(id); err != nil {
			return err
		}
		c.d.stats.IntsNotified++
		c.d.obs.interrupts.Inc()
		c.obs.interrupts.Inc()
	}
	c.intQueue = c.intQueue[:0]
	return nil
}

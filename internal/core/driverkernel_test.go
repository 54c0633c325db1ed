package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosim/internal/obs"
	"cosim/internal/sim"
)

// advanceKernel runs the kernel up to t so Now() moves forward.
func advanceKernel(t *testing.T, k *sim.Kernel, until sim.Time) {
	t.Helper()
	k.CallAt(until, func() {})
	if err := k.Run(until); err != nil && err != sim.ErrDeadlock {
		t.Fatalf("kernel run: %v", err)
	}
	if k.Now() != until {
		t.Fatalf("kernel at %v, want %v", k.Now(), until)
	}
}

// newTestDriverKernel wires a single-CPU DriverKernel with the given
// ports over an in-process pipe and returns the guest-side data end.
func newTestDriverKernel(t *testing.T, opts DriverKernelOptions, ports ...VarBinding) (*sim.Kernel, *DriverKernel, net.Conn) {
	t.Helper()
	k := sim.NewKernel("t")
	dataHost, dataGuest := net.Pipe()
	d, err := NewDriverKernel(k, []DriverChannel{{Data: dataHost, IRQ: io.Discard, Ports: ports}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		k.Shutdown()
		dataGuest.Close()
	})
	return k, d, dataGuest
}

// TestSkewWaitIgnoresStaleNotify is the regression test for the stale
// wake-up token bug: a token left in d.notify by messages that were
// already drained in a prior cycle must not satisfy the conservative
// skew wait — the wait may only wake on genuinely new data.
func TestSkewWaitIgnoresStaleNotify(t *testing.T) {
	reg := obs.NewRegistry()
	k, d, _ := newTestDriverKernel(t, DriverKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS, SkewBound: sim.NS, Obs: reg},
	})
	d.waitTimeout = 100 * time.Millisecond
	advanceKernel(t, k, sim.US) // push Now() past the request time + skewBound

	c := d.cpus[0]
	c.clock.outstanding, c.clock.since = true, 0
	d.notify <- struct{}{} // stale: nothing new behind it

	start := time.Now()
	d.drain(k)
	elapsed := time.Since(start)
	if elapsed < d.waitTimeout/2 {
		t.Fatalf("skew wait returned after %v — the stale token voided the bound", elapsed)
	}
	if c.clock.outstanding {
		t.Error("timed-out wait should give up on the outstanding request")
	}
	// The give-up is reported, in the aggregate and per CPU.
	for _, name := range []string{"driver.skew_wait_timeouts", "driver.cpu0.skew_wait_timeouts"} {
		if n := reg.Counter(name).Load(); n != 1 {
			t.Errorf("%s = %d, want 1", name, n)
		}
	}
	if d.err != nil {
		t.Fatalf("unexpected scheme error: %v", d.err)
	}
}

// TestSkewWaitTimerIsReusable checks that consecutive conservative
// waits share one timer and each still runs its full timeout: a tick
// left over from an earlier wait must not end a later one early.
func TestSkewWaitTimerIsReusable(t *testing.T) {
	reg := obs.NewRegistry()
	k, d, _ := newTestDriverKernel(t, DriverKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS, SkewBound: sim.NS, Obs: reg},
	})
	d.waitTimeout = 50 * time.Millisecond
	advanceKernel(t, k, sim.US)

	c := d.cpus[0]
	var timer *time.Timer
	for i := 1; i <= 3; i++ {
		c.clock.outstanding, c.clock.since = true, 0
		start := time.Now()
		d.drain(k)
		if elapsed := time.Since(start); elapsed < d.waitTimeout/2 {
			t.Fatalf("wait %d returned after %v, want about %v", i, elapsed, d.waitTimeout)
		}
		if timer == nil {
			timer = d.timer
		} else if d.timer != timer {
			t.Fatalf("wait %d built a new timer", i)
		}
	}
	if n := reg.Counter("driver.skew_wait_timeouts").Load(); n != 3 {
		t.Errorf("driver.skew_wait_timeouts = %d, want 3", n)
	}
}

// TestSkewWaitWakesOnFreshMessage is the counterpart: a message that
// arrives during the wait must wake it early and be processed.
func TestSkewWaitWakesOnFreshMessage(t *testing.T) {
	reg := obs.NewRegistry()
	k, d, guest := newTestDriverKernel(t, DriverKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS, SkewBound: sim.NS, Obs: reg},
	}, VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	d.waitTimeout = 2 * time.Second
	advanceKernel(t, k, sim.US)

	c := d.cpus[0]
	c.clock.outstanding, c.clock.since = true, 0
	d.notify <- struct{}{} // stale token again

	go func() {
		time.Sleep(30 * time.Millisecond)
		_ = WriteMessage(guest, Message{Type: MsgWrite, Cycles: 7, Port: "in", Data: []byte{1, 2, 3, 4}})
	}()

	start := time.Now()
	d.drain(k)
	elapsed := time.Since(start)
	if elapsed >= d.waitTimeout {
		t.Fatalf("wait did not wake on fresh data (took %v)", elapsed)
	}
	if d.err != nil {
		t.Fatalf("unexpected scheme error: %v", d.err)
	}
	if d.stats.Messages == 0 {
		t.Fatal("the waking message was not processed")
	}
	if n := reg.Counter("driver.skew_wait_timeouts").Load(); n != 0 {
		t.Errorf("driver.skew_wait_timeouts = %d after a wait that woke on data", n)
	}
}

// TestDriverKernelWaitsAtSkewDeadline: with no other timed work before
// the run's end, a DATA reply's skew deadline is itself a time point.
// The kernel stops there, waits (in wall time) for the late guest, and
// delivers the guest's WRITE at the WRITE's own stamp, not at the next
// event the model happens to have.
func TestDriverKernelWaitsAtSkewDeadline(t *testing.T) {
	const (
		period = 10 * sim.NS
		bound  = sim.US
		end    = 100 * sim.US
		stamp  = 150 // guest cycles: 1.5us, past the deadline
	)
	reg := obs.NewRegistry()
	k, d, guest := newTestDriverKernel(t, DriverKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: period, SkewBound: bound, Obs: reg},
	}, VarBinding{Port: "out", Dir: ToISS, Size: 4}, VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	out, _ := k.IssOutPort("out")
	in, _ := k.IssInPort("in")
	out.WriteUint32(0x55)

	var visits, delivered []sim.Time
	k.AddCycleHook(func(k *sim.Kernel) { visits = append(visits, k.Now()) })
	k.MethodNoInit("model", func() { delivered = append(delivered, k.Now()) }, in.Event())

	// The scripted guest READs at cycle 0, takes the DATA reply, and
	// answers late in wall time, once the kernel waits for it, with a
	// WRITE stamped past the deadline.
	guestErr := make(chan error, 1)
	go func() {
		if err := WriteMessage(guest, Message{Type: MsgRead, Port: "out"}); err != nil {
			guestErr <- err
			return
		}
		if m, err := ReadMessage(bufio.NewReader(guest)); err != nil || m.Type != MsgData {
			guestErr <- fmt.Errorf("DATA reply = %+v, %v", m, err)
			return
		}
		giveUp := time.Now().Add(2 * time.Second)
		for reg.Counter("driver.skew_waits").Load() == 0 && time.Now().Before(giveUp) {
			time.Sleep(time.Millisecond)
		}
		guestErr <- WriteMessage(guest, Message{Type: MsgWrite, Cycles: stamp, Port: "in", Data: []byte{1, 0, 0, 0}})
	}()
	waitInbox(t, d, 1) // the READ is drained at time 0

	advanceKernel(t, k, end)
	if err := <-guestErr; err != nil {
		t.Fatalf("guest: %v", err)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	want := []sim.Time{0, bound, stamp * period, end}
	if !slices.Equal(visits, want) {
		t.Errorf("kernel visited %v, want %v", visits, want)
	}
	if !slices.Equal(delivered, []sim.Time{stamp * period}) {
		t.Errorf("WRITE delivered at %v, want at its stamp %v", delivered, stamp*period)
	}
	if n := reg.Counter("driver.skew_waits").Load(); n != 1 {
		t.Errorf("driver.skew_waits = %d, want 1", n)
	}
	if n := reg.Counter("driver.skew_wait_timeouts").Load(); n != 0 {
		t.Errorf("driver.skew_wait_timeouts = %d, want 0", n)
	}
}

// waitReadErr polls until a CPU's reader goroutine records a terminal
// error.
func waitReadErr(t *testing.T, d *DriverKernel, cpu int) error {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		err := d.cpus[cpu].rdErr
		d.mu.Unlock()
		if err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("reader goroutine never observed the stream end")
	return nil
}

func TestCleanEOFIsGuestShutdown(t *testing.T) {
	k, d, guest := newTestDriverKernel(t, DriverKernelOptions{})
	guest.Close() // clean shutdown between messages
	if err := waitReadErr(t, d, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("reader error = %v, want io.EOF", err)
	}
	d.drain(k)
	if d.err != nil {
		t.Fatalf("clean EOF misfiled as failure: %v", d.err)
	}
}

func TestMidMessageEOFIsError(t *testing.T) {
	k, d, guest := newTestDriverKernel(t, DriverKernelOptions{})
	// Announce a 12-byte body but deliver only 4 before disconnecting:
	// a mid-message EOF, i.e. a real connection failure.
	go func() {
		_, _ = guest.Write([]byte{12, 0, 0, 0, 1, 0, 0, 0})
		guest.Close()
	}()
	if err := waitReadErr(t, d, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reader error = %v, want io.ErrUnexpectedEOF", err)
	}
	d.drain(k)
	if d.err == nil {
		t.Fatal("mid-message EOF misfiled as clean guest shutdown")
	}
	if !errors.Is(d.err, io.ErrUnexpectedEOF) {
		t.Fatalf("scheme error %v does not wrap io.ErrUnexpectedEOF", d.err)
	}
	if !strings.Contains(d.err.Error(), "cpu0") {
		t.Fatalf("scheme error %q does not name the failing CPU", d.err)
	}
}

// TestReadErrorBehindMessageSurfacesLater checks that a reader error
// arriving in the same batch as a message does not void the message:
// the drain processes the message first and surfaces the error on a
// later cycle, once the CPU's stream is dry.
func TestReadErrorBehindMessageSurfacesLater(t *testing.T) {
	k, d, guest := newTestDriverKernel(t, DriverKernelOptions{}, VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	go func() {
		_ = WriteMessage(guest, Message{Type: MsgWrite, Cycles: 7, Port: "in", Data: []byte{1, 2, 3, 4}})
		_, _ = guest.Write([]byte{12, 0, 0, 0, 1, 0, 0, 0}) // then a truncated frame
		guest.Close()
	}()
	if err := waitReadErr(t, d, 0); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("reader error = %v, want io.ErrUnexpectedEOF", err)
	}

	d.drain(k)
	if d.stats.Messages != 1 {
		t.Fatalf("first drain handled %d messages, want 1", d.stats.Messages)
	}
	if d.err != nil {
		t.Fatalf("error surfaced in the cycle that still had a message: %v", d.err)
	}
	d.drain(k)
	if !errors.Is(d.err, io.ErrUnexpectedEOF) {
		t.Fatalf("second drain: scheme error = %v, want one wrapping io.ErrUnexpectedEOF", d.err)
	}
}

// multiGuest is the guest side of one CPU channel in a multi-CPU test
// rig: its data conn and an interrupt-id recorder.
type multiGuest struct {
	data net.Conn
	irqs atomic.Int64 // count of 4-byte notifications received
	last atomic.Uint32
}

// newMultiDriverKernel wires an n-CPU DriverKernel with per-CPU
// prefixed ports ("cpuI.in" ToSystemC, "cpuI.out" ToISS, guest-visible
// as "in"/"out") and interrupt-counting guest ends.
func newMultiDriverKernel(t *testing.T, n int, opts DriverKernelOptions) (*sim.Kernel, *DriverKernel, []*multiGuest) {
	t.Helper()
	k := sim.NewKernel("t")
	var chans []DriverChannel
	var guests []*multiGuest
	for i := 0; i < n; i++ {
		dataHost, dataGuest := net.Pipe()
		irqHost, irqGuest := net.Pipe()
		g := &multiGuest{data: dataGuest}
		go func(g *multiGuest, r net.Conn) {
			var b [4]byte
			for {
				if _, err := io.ReadFull(r, b[:]); err != nil {
					return
				}
				g.last.Store(binary.LittleEndian.Uint32(b[:]))
				g.irqs.Add(1)
			}
		}(g, irqGuest)
		chans = append(chans, DriverChannel{
			Data:   dataHost,
			IRQ:    irqHost,
			Prefix: "cpu" + string(rune('0'+i)) + ".",
			Ports: []VarBinding{
				{Port: "in", Dir: ToSystemC, Size: 4},
				{Port: "out", Dir: ToISS, Size: 4},
			},
		})
		guests = append(guests, g)
	}
	d, err := NewDriverKernel(k, chans, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		k.Shutdown()
		for _, g := range guests {
			g.data.Close()
		}
	})
	return k, d, guests
}

// waitInbox polls until at least n messages are queued in the inbox.
func waitInbox(t *testing.T, d *DriverKernel, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		got := len(d.inbox)
		d.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("inbox never reached %d messages", n)
}

// TestMultiChannelPortRouting checks that a WRITE arriving on CPU 1's
// channel lands on CPU 1's prefixed kernel port, not CPU 0's, even
// though both guests use the same guest-visible port name.
func TestMultiChannelPortRouting(t *testing.T) {
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	in0, _ := k.IssInPort("cpu0.in")
	in1, _ := k.IssInPort("cpu1.in")

	go func() {
		_ = WriteMessage(guests[1].data, Message{Type: MsgWrite, Cycles: 3, Port: "in", Data: []byte{9, 0, 0, 0}})
	}()
	waitInbox(t, d, 1)
	d.drain(k)
	if d.err != nil {
		t.Fatal(d.err)
	}
	// The delivery is scheduled at the stamp's target time (= now with
	// period 0); run the kernel so the CallAt fires.
	advanceKernel(t, k, sim.NS)

	if got := in1.Deliveries(); got != 1 {
		t.Fatalf("cpu1.in deliveries = %d, want 1", got)
	}
	if got := in1.Uint32(); got != 9 {
		t.Fatalf("cpu1.in value = %d, want 9", got)
	}
	if got := in0.Deliveries(); got != 0 {
		t.Fatalf("cpu0.in deliveries = %d, want 0 — cross-CPU WRITE leak", got)
	}
}

// TestPrefixedStoreAllocs: with no journal attached, a store on a
// multi-CPU (prefixed) port allocates no more than one on an unprefixed
// port; the journal's port name is the port's own, not built per store.
func TestPrefixedStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	allocs := func(k *sim.Kernel, d *DriverKernel, name string) float64 {
		port, _ := k.IssInPort(name)
		m := Message{Type: MsgWrite, Port: "in", Data: []byte{1, 2, 3, 4}}
		return testing.AllocsPerRun(200, func() {
			m.Cycles++
			d.cpus[0].store(port, m)
		})
	}
	k, d, _ := newTestDriverKernel(t, DriverKernelOptions{}, VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	plain := allocs(k, d, "in")
	k, d, _ = newMultiDriverKernel(t, 1, DriverKernelOptions{})
	if prefixed := allocs(k, d, "cpu0.in"); prefixed > plain {
		t.Errorf("prefixed store allocates %.1f times, unprefixed %.1f", prefixed, plain)
	}
}

// TestMultiChannelReadRouting checks READ traffic: each CPU's READ is
// served from its own prefixed iss_out port and the DATA_READY
// interrupt goes back on its own interrupt socket.
func TestMultiChannelReadRouting(t *testing.T) {
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	out1, _ := k.IssOutPort("cpu1.out")
	out1.WriteUint32(0x55)

	// The guest's reply arrives as a DATA message on its data socket.
	gotData := make(chan uint32, 1)
	go func() {
		br := bufio.NewReader(guests[1].data)
		m, err := ReadMessage(br)
		if err != nil || m.Type != MsgData {
			return
		}
		gotData <- binary.LittleEndian.Uint32(m.Data)
	}()
	go func() {
		_ = WriteMessage(guests[1].data, Message{Type: MsgRead, Cycles: 1, Port: "out"})
	}()
	waitInbox(t, d, 1)
	d.drain(k)
	if d.err != nil {
		t.Fatal(d.err)
	}
	select {
	case v := <-gotData:
		if v != 0x55 {
			t.Fatalf("DATA reply = %#x, want 0x55", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no DATA reply on cpu1's data socket")
	}
	waitIRQs(t, guests[1], 1)
	if got := guests[0].irqs.Load(); got != 0 {
		t.Fatalf("cpu0 observed %d interrupts for cpu1's DATA_READY", got)
	}
}

func waitIRQs(t *testing.T, g *multiGuest, want int64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if g.irqs.Load() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("guest saw %d interrupts, want >= %d", g.irqs.Load(), want)
}

// TestPerCPUInterruptIsolation drives both CPUs concurrently — guests
// writing messages while the kernel hooks cycle — and checks that
// interrupts raised for CPU 1 are never observed on CPU 0's interrupt
// socket. Run under -race this also exercises the shared-inbox
// synchronization with both CPUs advancing at once.
func TestPerCPUInterruptIsolation(t *testing.T) {
	const cycles = 50
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})

	// Both guests hammer their data sockets concurrently.
	stop := make(chan struct{})
	for i, g := range guests {
		go func(i int, g *multiGuest) {
			for n := uint32(0); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if WriteMessage(g.data, Message{Type: MsgWrite, Cycles: n, Port: "in", Data: []byte{byte(i), 0, 0, 0}}) != nil {
					return
				}
			}
		}(i, g)
	}

	for n := 0; n < cycles; n++ {
		d.drain(k)
		d.RaiseInterruptCPU(1, 42)
		d.flushInterrupts(k)
		if d.err != nil {
			t.Fatal(d.err)
		}
	}
	close(stop)
	guests[0].data.Close()
	guests[1].data.Close()

	waitIRQs(t, guests[1], cycles)
	if got := guests[1].last.Load(); got != 42 {
		t.Fatalf("cpu1 last interrupt id = %d, want 42", got)
	}
	if got := guests[0].irqs.Load(); got != 0 {
		t.Fatalf("cpu0 observed %d of cpu1's interrupts — routing leak", got)
	}
}

// TestErrorsCarryCPUAndPort pins the error-attribution contract: a
// failure on CPU 1's channel names cpu1 and the offending port.
func TestErrorsCarryCPUAndPort(t *testing.T) {
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	go func() {
		_ = WriteMessage(guests[1].data, Message{Type: MsgWrite, Cycles: 0, Port: "zzz", Data: []byte{1}})
	}()
	waitInbox(t, d, 1)
	d.drain(k)
	if d.err == nil {
		t.Fatal("WRITE to unknown port accepted")
	}
	for _, want := range []string{"cpu1", `"zzz"`} {
		if !strings.Contains(d.err.Error(), want) {
			t.Fatalf("error %q does not contain %q", d.err, want)
		}
	}
}

// TestRaiseInterruptUnknownCPU: routing an interrupt to a CPU that was
// never attached is a scheme error naming the CPU, not a panic.
func TestRaiseInterruptUnknownCPU(t *testing.T) {
	_, d, _ := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	d.RaiseInterruptCPU(5, 7)
	if d.Err() == nil {
		t.Fatal("out-of-range CPU accepted")
	}
	if !strings.Contains(d.Err().Error(), "cpu5") {
		t.Fatalf("error %q does not name cpu5", d.Err())
	}
}

// closableChannel is a custom channel type that is deliberately NOT a
// net.Conn: just an io.ReadWriter with a Close. The regression below
// guards the finalizer fix — teardown must go through io.Closer, so a
// user-supplied channel like this one is closed at Shutdown and its
// reader goroutine terminates.
type closableChannel struct {
	r      *io.PipeReader
	w      *io.PipeWriter
	closed atomic.Bool
}

func newClosableChannel() (*closableChannel, *io.PipeWriter, *io.PipeReader) {
	// guestW feeds the channel's reads; guestR sees the channel's writes.
	r, guestW := io.Pipe()
	guestR, w := io.Pipe()
	return &closableChannel{r: r, w: w}, guestW, guestR
}

func (c *closableChannel) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *closableChannel) Write(p []byte) (int, error) { return c.w.Write(p) }
func (c *closableChannel) Close() error {
	c.closed.Store(true)
	_ = c.w.Close()
	return c.r.Close()
}

// TestShutdownClosesNonConnChannels: kernel finalizers must close any
// channel that implements io.Closer — not only net.Conn — so custom
// transports tear down cleanly. Reverting the io.Closer finalizer fix
// makes this test fail (the channel stays open and its reader leaks).
func TestShutdownClosesNonConnChannels(t *testing.T) {
	k := sim.NewKernel("t")
	data, _, _ := newClosableChannel()
	irq, _, _ := newClosableChannel()
	d, err := NewDriverKernel(k, []DriverChannel{{Data: data, IRQ: irq}}, DriverKernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if !data.closed.Load() {
		t.Fatal("data channel not closed at Shutdown — finalizer skipped the non-Conn io.Closer")
	}
	if !irq.closed.Load() {
		t.Fatal("interrupt channel not closed at Shutdown — finalizer skipped the non-Conn io.Closer")
	}
	// The reader goroutine must have observed the close and parked a
	// terminal error.
	if err := waitReadErr(t, d, 0); err == nil {
		t.Fatal("reader goroutine never terminated after channel close")
	}
}

// TestChannelCountValidation: a Driver-Kernel attachment needs at least
// one CPU channel.
func TestChannelCountValidation(t *testing.T) {
	k := sim.NewKernel("t")
	defer k.Shutdown()
	_, err := NewDriverKernel(k, nil, DriverKernelOptions{})
	if err == nil {
		t.Fatal("zero channels accepted")
	}
}

package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cosim/internal/asm"
	"cosim/internal/dev"
	"cosim/internal/iss"
	"cosim/internal/rtos"
	"cosim/internal/sim"
	"cosim/internal/transport"
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

// fakeGuest is a scripted Guest. RunTo runs to the next step's cycle,
// writes the step's bytes to the data socket and yields; with no step
// due by the limit, it runs to the limit. Receive records what the
// kernel sent it.
type fakeGuest struct {
	data   transport.Endpoint // the guest end of the data socket
	irq    transport.Endpoint // the guest end of the interrupt socket
	cycles uint64
	sent   uint64
	steps  []step
	limits []uint64 // every limit RunTo was given

	replies []Message // DATA frames received
	irqs    []uint32  // interrupt ids received
}

// step is one scripted guest send.
type step struct {
	at    uint64 // the guest's cycle count at the send
	frame []byte
	whole bool // the kernel can decode the frame: it counts as sent
	close bool // close the data socket after the send
}

// send scripts a well-formed frame for m, sent at cycle m.Cycles.
func (g *fakeGuest) send(m Message) {
	b, err := m.Encode()
	if err != nil {
		panic(err)
	}
	g.steps = append(g.steps, step{at: uint64(m.Cycles), frame: b, whole: true})
}

func (g *fakeGuest) RunTo(limit uint64) iss.Stop {
	g.limits = append(g.limits, limit)
	if len(g.steps) == 0 || g.steps[0].at > limit {
		g.cycles = max(g.cycles, limit)
		return iss.StopBudget
	}
	s := g.steps[0]
	g.steps = g.steps[1:]
	g.cycles = max(g.cycles, s.at)
	if _, err := g.data.Write(s.frame); err != nil {
		return iss.StopError
	}
	g.sent += uint64(len(s.frame))
	if s.close {
		g.data.Close()
	}
	return iss.StopYield
}

func (g *fakeGuest) Cycles() uint64 { return g.cycles }
func (g *fakeGuest) Sent() uint64   { return g.sent }

func (g *fakeGuest) Receive(data, irq uint64) error {
	b := make([]byte, data)
	if _, err := io.ReadFull(g.data, b); err != nil {
		return err
	}
	for br := bufio.NewReader(bytes.NewReader(b)); ; {
		m, err := ReadMessage(br)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		g.replies = append(g.replies, m)
	}
	var id [4]byte
	for ; irq >= 4; irq -= 4 {
		if _, err := io.ReadFull(g.irq, id[:]); err != nil {
			return err
		}
		g.irqs = append(g.irqs, binary.LittleEndian.Uint32(id[:]))
	}
	return nil
}

// newFakeGuest makes one channel pair over the ring transport and
// returns the guest with the kernel-side channel.
func newFakeGuest(t *testing.T, prefix string, ports []VarBinding) (*fakeGuest, DriverChannel) {
	t.Helper()
	dataHost, dataGuest, err := TransportRing.Pair()
	if err != nil {
		t.Fatal(err)
	}
	irqHost, irqGuest, err := TransportRing.Pair()
	if err != nil {
		t.Fatal(err)
	}
	g := &fakeGuest{data: dataGuest, irq: irqGuest}
	t.Cleanup(func() {
		dataGuest.Close()
		irqGuest.Close()
	})
	return g, DriverChannel{Data: dataHost, IRQ: irqHost, Prefix: prefix, Ports: ports, Guest: g}
}

// newTestDriverKernel wires a single-CPU DriverKernel with the given
// ports to a scripted guest, at a 10ns CPU period.
func newTestDriverKernel(t *testing.T, opts DriverKernelOptions, ports ...VarBinding) (*sim.Kernel, *DriverKernel, *fakeGuest) {
	t.Helper()
	k := sim.NewKernel("t")
	g, ch := newFakeGuest(t, "", ports)
	if opts.CPUPeriod == 0 {
		opts.CPUPeriod = 10 * sim.NS
	}
	d, err := NewDriverKernel(k, []DriverChannel{ch}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Shutdown)
	return k, d, g
}

// newMultiDriverKernel wires an n-CPU DriverKernel with per-CPU
// prefixed ports ("cpuI.in" ToSystemC, "cpuI.out" ToISS, guest-visible
// as "in"/"out") to scripted guests.
func newMultiDriverKernel(t *testing.T, n int, opts DriverKernelOptions) (*sim.Kernel, *DriverKernel, []*fakeGuest) {
	t.Helper()
	k := sim.NewKernel("t")
	var chans []DriverChannel
	var guests []*fakeGuest
	for i := 0; i < n; i++ {
		g, ch := newFakeGuest(t, fmt.Sprintf("cpu%d.", i), []VarBinding{
			{Port: "in", Dir: ToSystemC, Size: 4},
			{Port: "out", Dir: ToISS, Size: 4},
		})
		chans = append(chans, ch)
		guests = append(guests, g)
	}
	if opts.CPUPeriod == 0 {
		opts.CPUPeriod = 10 * sim.NS
	}
	d, err := NewDriverKernel(k, chans, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(k.Shutdown)
	return k, d, guests
}

// TestDriverKernelGrantsToHorizon: before time advances, the kernel
// runs the guest to the next timed event and no further. A guest that
// sends stops there; its WRITE is delivered at the time of its cycle
// count, which becomes a time point of its own, and the guest runs on
// from there.
func TestDriverKernelGrantsToHorizon(t *testing.T) {
	const (
		period = 10 * sim.NS
		end    = 10 * sim.US
	)
	k, d, g := newTestDriverKernel(t, DriverKernelOptions{CommonOptions: CommonOptions{CPUPeriod: period}},
		VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	in, _ := k.IssInPort("in")
	var visits, delivered []sim.Time
	k.AddCycleHook(func(k *sim.Kernel) { visits = append(visits, k.Now()) })
	k.MethodNoInit("model", func() { delivered = append(delivered, k.Now()) }, in.Event())
	k.CallAt(sim.US, func() {})
	k.CallAt(3*sim.US, func() {})

	// The guest sends at cycle 150 (1.5us).
	g.send(Message{Type: MsgWrite, Cycles: 150, Port: "in", Data: []byte{1, 0, 0, 0}})
	advanceKernel(t, k, end)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if want := []sim.Time{0, sim.US, 1500 * sim.NS, 3 * sim.US, end}; !slices.Equal(visits, want) {
		t.Errorf("kernel visited %v, want %v", visits, want)
	}
	if want := []sim.Time{1500 * sim.NS}; !slices.Equal(delivered, want) {
		t.Errorf("WRITE delivered at %v, want %v", delivered, want)
	}
	// Granted to 1us; to 3us, stopped at the send; to 3us again from
	// the send; to the end.
	if want := []uint64{100, 300, 300, 1000}; !slices.Equal(g.limits, want) {
		t.Errorf("grants %v, want %v", g.limits, want)
	}
}

// TestDriverKernelGuestSleepsToHorizon: a real guest idling in WFI
// spends its cycles up to each horizon, and the platform timer's WFI
// fast-forward stops there too, so guest time never runs past
// simulated time.
func TestDriverKernelGuestSleepsToHorizon(t *testing.T) {
	im, err := rtos.Build(asm.Source{Name: "app.s", Text: `
main:
    la   t0, 0xF0001000
    li   t1, 1000000
    sw   t1, 4(t0)      ; compare far past the run
    addi t1, zero, 1
    sw   t1, 12(t0)     ; enable
idle:
    wfi
    j    idle
`})
	if err != nil {
		t.Fatal(err)
	}
	p := dev.NewPlatform(0, nil)
	if err := im.LoadInto(p.RAM); err != nil {
		t.Fatal(err)
	}
	p.CPU.Reset(im.Entry)
	target, err := ConnectDriverTarget(p, TransportRing)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("t")
	defer k.Shutdown()
	d, err := NewDriverKernel(k, []DriverChannel{{Data: target.DataHost, IRQ: target.IRQHost, Guest: p}},
		DriverKernelOptions{CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS}})
	if err != nil {
		t.Fatal(err)
	}
	var lag uint64 // cycles before the timer started counting
	for _, until := range []sim.Time{sim.US, 2500 * sim.NS, 40 * sim.US} {
		advanceKernel(t, k, until)
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		if got, want := p.CPU.Cycles(), uint64(until/(10*sim.NS)); got != want {
			t.Errorf("at %v: guest at cycle %d, want %d", until, got, want)
		}
		count, _ := p.Timer.Read(dev.TimerCount, 4)
		if lag == 0 {
			lag = p.CPU.Cycles() - uint64(count)
		}
		if got := p.CPU.Cycles() - uint64(count); got != lag || lag > 100 {
			t.Errorf("at %v: timer %d cycles behind the CPU, want the %d it started behind", until, got, lag)
		}
	}
	if n := p.CPU.Instructions(); n > 100 {
		t.Errorf("an idle guest ran %d instructions", n)
	}
}

func TestCleanEOFIsGuestShutdown(t *testing.T) {
	k, d, g := newTestDriverKernel(t, DriverKernelOptions{})
	g.data.Close() // clean shutdown between messages
	advanceKernel(t, k, sim.US)
	if d.Err() != nil {
		t.Fatalf("clean EOF misfiled as failure: %v", d.Err())
	}
}

func TestMidMessageEOFIsError(t *testing.T) {
	k, d, g := newTestDriverKernel(t, DriverKernelOptions{})
	// Announce a 12-byte body but deliver only 4 before disconnecting:
	// a mid-message EOF, i.e. a real connection failure.
	g.steps = append(g.steps, step{frame: []byte{12, 0, 0, 0, 1, 0, 0, 0}, close: true})
	if err := k.Run(sim.US); err != nil {
		t.Fatal(err)
	}
	err := d.Err()
	if err == nil {
		t.Fatal("mid-message EOF misfiled as clean guest shutdown")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("scheme error %v does not wrap io.ErrUnexpectedEOF", err)
	}
	if !strings.Contains(err.Error(), "cpu0") {
		t.Fatalf("scheme error %q does not name the failing CPU", err)
	}
}

// TestReadErrorBehindMessageSurfacesLater checks that a read error
// right behind a message does not void the message: the message is
// handled, and the error surfaces when the guest sends the bad frame.
func TestReadErrorBehindMessageSurfacesLater(t *testing.T) {
	k, d, g := newTestDriverKernel(t, DriverKernelOptions{}, VarBinding{Port: "in", Dir: ToSystemC, Size: 4})
	in, _ := k.IssInPort("in")
	g.send(Message{Type: MsgWrite, Cycles: 7, Port: "in", Data: []byte{1, 2, 3, 4}})
	g.steps = append(g.steps, step{at: 150, frame: []byte{12, 0, 0, 0, 1, 0, 0, 0}, close: true}) // then a truncated frame
	k.CallAt(sim.US, func() {})
	if err := k.Run(2 * sim.US); err != nil {
		t.Fatal(err)
	}
	if d.stats.Messages != 1 || in.Deliveries() != 1 {
		t.Fatalf("handled %d messages, %d deliveries; want the WRITE's", d.stats.Messages, in.Deliveries())
	}
	if !errors.Is(d.Err(), io.ErrUnexpectedEOF) {
		t.Fatalf("scheme error = %v, want one wrapping io.ErrUnexpectedEOF", d.Err())
	}
	if k.Now() != sim.US {
		t.Fatalf("the error surfaced at %v, want at the grant at 1us", k.Now())
	}
}

// TestMultiChannelPortRouting checks that a WRITE arriving on CPU 1's
// channel lands on CPU 1's prefixed kernel port, not CPU 0's, even
// though both guests use the same guest-visible port name.
func TestMultiChannelPortRouting(t *testing.T) {
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	in0, _ := k.IssInPort("cpu0.in")
	in1, _ := k.IssInPort("cpu1.in")
	guests[1].send(Message{Type: MsgWrite, Cycles: 3, Port: "in", Data: []byte{9, 0, 0, 0}})
	advanceKernel(t, k, sim.US)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
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
	guests[1].send(Message{Type: MsgRead, Cycles: 1, Port: "out"})
	advanceKernel(t, k, sim.US)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	// The guest ran on after the reply, so its device had taken it and
	// the DATA_READY interrupt.
	if len(guests[1].replies) != 1 {
		t.Fatalf("cpu1 got %d DATA replies, want 1", len(guests[1].replies))
	}
	if m := guests[1].replies[0]; m.Type != MsgData || binary.LittleEndian.Uint32(m.Data) != 0x55 {
		t.Fatalf("reply = type %d, % x; want DATA 0x55", m.Type, m.Data)
	}
	if !slices.Equal(guests[1].irqs, []uint32{IntDataReady}) {
		t.Fatalf("cpu1 saw interrupts %x, want DATA_READY", guests[1].irqs)
	}
	if got := len(guests[0].irqs); got != 0 {
		t.Fatalf("cpu0 observed %d interrupts for cpu1's DATA_READY", got)
	}
}

// TestPerCPUInterruptIsolation drives both CPUs at once — guests
// sending WRITEs at every grant while the model raises interrupts for
// CPU 1 — and checks that CPU 0's interrupt socket never sees one.
func TestPerCPUInterruptIsolation(t *testing.T) {
	const raises = 50
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	for i, g := range guests {
		for n := uint32(0); n < raises; n++ {
			g.send(Message{Type: MsgWrite, Cycles: 100*n + 50, Port: "in", Data: []byte{byte(i), 0, 0, 0}})
		}
	}
	for n := 1; n <= raises; n++ {
		k.CallAt(sim.Time(n)*sim.US, func() { d.RaiseInterruptCPU(1, 42) })
	}
	advanceKernel(t, k, (raises+1)*sim.US)
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if got := d.stats.Messages; got != 2*raises {
		t.Fatalf("handled %d messages, want %d", got, 2*raises)
	}
	if got := len(guests[1].irqs); got != raises {
		t.Fatalf("cpu1 saw %d interrupts, want %d", got, raises)
	}
	if got := guests[1].irqs[raises-1]; got != 42 {
		t.Fatalf("cpu1 last interrupt id = %d, want 42", got)
	}
	if got := len(guests[0].irqs); got != 0 {
		t.Fatalf("cpu0 observed %d of cpu1's interrupts — routing leak", got)
	}
}

// TestErrorsCarryCPUAndPort pins the error-attribution contract: a
// failure on CPU 1's channel names cpu1 and the offending port.
func TestErrorsCarryCPUAndPort(t *testing.T) {
	k, d, guests := newMultiDriverKernel(t, 2, DriverKernelOptions{})
	guests[1].send(Message{Type: MsgWrite, Cycles: 0, Port: "zzz", Data: []byte{1}})
	if err := k.Run(sim.US); err != nil {
		t.Fatal(err)
	}
	if d.Err() == nil {
		t.Fatal("WRITE to unknown port accepted")
	}
	for _, want := range []string{"cpu1", `"zzz"`} {
		if !strings.Contains(d.Err().Error(), want) {
			t.Fatalf("error %q does not contain %q", d.Err(), want)
		}
	}
}

// swallow is a channel end that stalls: it takes every write and
// delivers none, but closes the pair beneath it.
type swallow struct{ transport.Endpoint }

func (swallow) Write(p []byte) (int, error) { return len(p), nil }

// TestStalledChannelFailsNamed: a channel that stalls the grant fails
// the run after deliveryTimeout (at most twice it) with
// ErrDeliveryTimeout naming the CPU and the socket, and tearing the run
// down leaves no goroutine behind. The interrupt stalls in the guest
// device's read when the channel swallows it, and in the kernel's own
// write on a bare net.Pipe, whose writes wait for a reader.
func TestStalledChannelFailsNamed(t *testing.T) {
	for _, tc := range []struct {
		name string
		pair func() (host, guest transport.Endpoint, err error)
		irq  func(transport.Endpoint) io.Writer
	}{
		{"guest-read", TransportRing.Pair, func(ep transport.Endpoint) io.Writer { return swallow{ep} }},
		{"kernel-write", TransportPipe.Pair, func(ep transport.Endpoint) io.Writer { return ep }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := sim.NewKernel("t")
			dataHost, dataGuest, err := tc.pair()
			if err != nil {
				t.Fatal(err)
			}
			irqHost, irqGuest, err := tc.pair()
			if err != nil {
				t.Fatal(err)
			}
			p := dev.NewPlatform(0, nil)
			p.Cosim.ConnectData(dataGuest, dataGuest)
			p.Cosim.ConnectIRQ(irqGuest)
			d, err := NewDriverKernel(k, []DriverChannel{{Data: dataHost, IRQ: tc.irq(irqHost), Guest: p}},
				DriverKernelOptions{CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS}})
			if err != nil {
				t.Fatal(err)
			}
			k.CallAt(sim.US, func() { d.RaiseInterruptCPU(0, 7) })
			k.CallAt(2*sim.US, func() {})
			start := time.Now()
			if err := k.Run(2 * sim.US); err != nil {
				t.Fatal(err)
			}
			if wall := time.Since(start); wall < deliveryTimeout || wall > 2*deliveryTimeout+time.Second/2 {
				t.Errorf("the stalled run took %v, want %v to %v", wall, deliveryTimeout, 2*deliveryTimeout)
			}
			err = d.Err()
			if !errors.Is(err, ErrDeliveryTimeout) {
				t.Fatalf("scheme error = %v, want ErrDeliveryTimeout", err)
			}
			for _, want := range []string{"cpu0", "interrupt socket"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %q", err, want)
				}
			}
			if k.Now() != sim.US {
				t.Errorf("the run went on to %v after the failure at 1us", k.Now())
			}
			runWithin(t, "k.Shutdown", teardownBound, k.Shutdown)
			dataGuest.Close()
			irqGuest.Close()
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after teardown, %d before", runtime.NumGoroutine(), before)
				}
				time.Sleep(time.Millisecond)
			}
		})
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
// makes this test fail (the channel stays open and its peer's reads
// never end).
func TestShutdownClosesNonConnChannels(t *testing.T) {
	k := sim.NewKernel("t")
	data, _, _ := newClosableChannel()
	irq, _, _ := newClosableChannel()
	_, err := NewDriverKernel(k, []DriverChannel{{Data: data, IRQ: irq, Guest: &fakeGuest{}}},
		DriverKernelOptions{CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS}})
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

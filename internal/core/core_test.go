package core

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cosim/internal/asm"
	"cosim/internal/dev"
	"cosim/internal/gdb"
	"cosim/internal/iss"
	"cosim/internal/obs"
	"cosim/internal/rtos"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	msgs := []Message{
		{Type: MsgWrite, Cycles: 12345, Port: "csum", Data: []byte{1, 2, 3}},
		{Type: MsgWrite, Cycles: 0, Port: "p", Data: nil},
		{Type: MsgRead, Cycles: 99, Port: "pkt"},
		{Type: MsgData, Data: []byte{0xff, 0x00, 0x80}},
	}
	for _, m := range msgs {
		enc, err := m.Encode()
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := ReadMessage(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got.Type != m.Type || got.Cycles != m.Cycles || got.Port != m.Port || !bytes.Equal(got.Data, m.Data) {
			t.Fatalf("round trip: %+v -> %+v", m, got)
		}
	}
}

func TestMessageCodecProperty(t *testing.T) {
	f := func(port string, data []byte, cycles uint32, readNotWrite bool) bool {
		if len(port) > 64 || len(data) > 1024 {
			return true
		}
		m := Message{Type: MsgWrite, Cycles: cycles, Port: port, Data: data}
		if readNotWrite {
			m = Message{Type: MsgRead, Cycles: cycles, Port: port}
		}
		enc, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := ReadMessage(bufio.NewReader(bytes.NewReader(enc)))
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Port == m.Port && got.Cycles == m.Cycles &&
			bytes.Equal(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMessageDecodeErrors(t *testing.T) {
	bad := [][]byte{
		{},
		{1, 0, 0, 0},                         // size 1 < 4
		{255, 255, 255, 255},                 // absurd size
		{4, 0, 0, 0, 9, 0, 0, 0},             // unknown type
		{8, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0}, // WRITE truncated
	}
	for _, b := range bad {
		if _, err := ReadMessage(bufio.NewReader(bytes.NewReader(b))); err == nil {
			t.Errorf("ReadMessage(% x) succeeded", b)
		}
	}
}

// doublerSrc is the bare-metal guest for the GDB schemes: reads a
// request word (SystemC pokes it at bp_req), doubles it, stores the
// response (SystemC reads it at bp_resp).
const doublerSrc = `
_start:
    la   s0, req
    la   s1, resp
loop:
bp_req:
    lw   a0, 0(s0)
    add  a1, a0, a0
    sw   a1, 0(s1)
bp_resp:
    nop
    j    loop
.data
.align 4
req:  .word 0
resp: .word 0
`

// buildBareMetal assembles a bare-metal guest and boots a CPU.
func buildBareMetal(t *testing.T, src string) (*iss.CPU, *asm.Image) {
	t.Helper()
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "guest.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		t.Fatal(err)
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)
	return cpu, im
}

var doublerBindings = []VarBinding{
	{Port: "req", Var: "req", Size: 4, Dir: ToISS, Label: "bp_req"},
	{Port: "resp", Var: "resp", Size: 4, Dir: ToSystemC, Label: "bp_resp"},
}

// driveDoubler runs the SystemC side: a method that writes request i,
// collects the response it triggers and writes request i+1, until n
// responses are in. The returned slice pointer is filled as the sim runs.
func driveDoubler(t *testing.T, k *sim.Kernel, n int) *[]uint32 {
	t.Helper()
	results := new([]uint32)
	req, ok := k.IssOutPort("req")
	if !ok {
		t.Fatal("req port missing")
	}
	resp, ok := k.IssInPort("resp")
	if !ok {
		t.Fatal("resp port missing")
	}
	sent := 0
	k.Method("driver", func() {
		if sent > 0 {
			*results = append(*results, resp.Uint32())
		}
		if sent == n {
			k.Stop()
			return
		}
		sent++
		req.WriteUint32(uint32(sent))
	}, resp.Event())
	return results
}

func TestGDBKernelEndToEnd(t *testing.T) {
	for _, tr := range []Transport{TransportPipe, TransportTCP} {
		cpu, im := buildBareMetal(t, doublerSrc)
		target, err := StartGDBTarget(cpu, tr)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel("top")
		sim.NewClock(k, "clk", 10*sim.NS)
		g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
			CommonOptions: CommonOptions{CPUPeriod: sim.NS},
			Bindings:      doublerBindings,
		})
		if err != nil {
			t.Fatal(err)
		}
		resultsP := driveDoubler(t, k, 5)
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatalf("run: %v (scheme err %v)", err, g.Err())
		}
		k.Shutdown()
		if g.Err() != nil {
			t.Fatal(g.Err())
		}
		results := *resultsP
		want := []uint32{2, 4, 6, 8, 10}
		if len(results) != len(want) {
			t.Fatalf("results = %v", results)
		}
		for i := range want {
			if results[i] != want[i] {
				t.Fatalf("results = %v, want %v", results, want)
			}
		}
		if g.Stats().Transfers < 10 {
			t.Fatalf("transfers = %d", g.Stats().Transfers)
		}
		_ = target.Wait()
	}
}

func TestGDBKernelTimeCoupling(t *testing.T) {
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	sim.NewClock(k, "clk", 10*sim.NS)
	period := 2 * sim.NS
	g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
		// Each stop is serviced at its cycle stamp, so latency reflects
		// guest cycles.
		CommonOptions: CommonOptions{CPUPeriod: period},
		Bindings:      doublerBindings,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := k.IssOutPort("req")
	resp, _ := k.IssInPort("resp")
	var reqTime, respTime sim.Time
	pause := k.NewEvent("pause")
	step := 0
	k.Method("driver", func() {
		switch step {
		case 0:
			// First exchange absorbs the boot-time skew between the
			// wall-clock-paced ISS and the freely advancing simulation.
			req.WriteUint32(1)
		case 1:
			pause.NotifyAfter(100 * sim.NS)
		case 2:
			// Second exchange: the guest is parked at bp_req, so
			// latency is governed by guest cycles alone.
			reqTime = k.Now()
			req.WriteUint32(21)
		case 3:
			respTime = k.Now()
			k.Stop()
		}
		step++
	}, resp.Event(), pause)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (scheme err %v)", err, g.Err())
	}
	k.Shutdown()
	if resp.Uint32() != 42 {
		t.Fatalf("resp = %d", resp.Uint32())
	}
	// The guest executes add+sw (+ breakpoint mechanics) between the
	// poke and the response store: a handful of cycles. The response
	// must arrive later than the request but within a small bound.
	lat := respTime - reqTime
	if lat == 0 {
		t.Fatal("zero latency: cycle coupling not applied")
	}
	// A handful of guest cycles, not a poll or skew granularity.
	if lat > 20*period {
		t.Fatalf("latency %v is more than 20 guest cycles", lat)
	}
	_ = target.Wait()
}

// silentEnd is a stub's end of a link that drops every write of the
// stub once it has read a continue: a peer that stops answering.
type silentEnd struct {
	io.ReadWriteCloser
	silent *atomic.Bool
}

func (s silentEnd) Read(p []byte) (int, error) {
	n, err := s.ReadWriteCloser.Read(p)
	if bytes.Contains(p[:n], []byte("$c#")) {
		s.silent.Store(true)
	}
	return n, err
}

func (s silentEnd) Write(p []byte) (int, error) {
	if s.silent.Load() {
		return len(p), nil
	}
	return s.ReadWriteCloser.Write(p)
}

// spinSrc is a guest that never reaches the doubler's breakpoints.
const spinSrc = `
_start:
spin:
    j    spin
bp_req:
    lw   a0, 0(s0)
bp_resp:
    nop
.data
req:  .word 0
resp: .word 0
`

// TestGDBKernelCountsSkewWaitTimeout: a stub that stops answering fails
// the run once the wait for its stop times out, on every transport
// (served as StartGDBTarget serves it: inline over the ring, on its own
// goroutine elsewhere): the error is ErrStopTimeout, names the scheme
// once and the guest's ports, and the timeout is counted. The run ends
// after the timeout and within twice it, and teardown leaves no
// goroutine.
func TestGDBKernelCountsSkewWaitTimeout(t *testing.T) {
	for _, tr := range transport.All() {
		t.Run(tr.Name(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cpu, im := buildBareMetal(t, spinSrc)
			host, guest, err := tr.Pair()
			if err != nil {
				t.Fatal(err)
			}
			end := silentEnd{guest, new(atomic.Bool)}
			var conn io.ReadWriter = host
			if tr == TransportRing {
				_, conn = gdb.NewInline(cpu, host, end)
			} else {
				stub := gdb.NewStub(cpu, end)
				go func() {
					_ = stub.Serve()
					guest.Close()
				}()
			}
			start := time.Now()
			reg := obs.NewRegistry()
			k := sim.NewKernel("top")
			sim.NewClock(k, "clk", 10*sim.NS)
			g, err := NewGDBKernel(k, conn, im, GDBKernelOptions{
				CommonOptions: CommonOptions{CPUPeriod: 10 * sim.NS, Obs: reg},
				Bindings:      doublerBindings,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(100 * sim.NS); err != nil {
				t.Fatalf("run: %v (scheme err %v)", err, g.Err())
			}
			if d := time.Since(start); d < stopTimeout || d >= 2*stopTimeout {
				t.Errorf("the run took %v, want %v to %v", d, stopTimeout, 2*stopTimeout)
			}
			k.Shutdown()
			err = g.Err()
			if !errors.Is(err, ErrStopTimeout) {
				t.Fatalf("scheme error = %v, want ErrStopTimeout", err)
			}
			if want := "gdb-kernel: guest of ports req, resp: " + ErrStopTimeout.Error() + " (1s)"; err.Error() != want {
				t.Errorf("scheme error %q, want %q", err, want)
			}
			if n := reg.Counter("cosim.skew_wait_timeouts").Load(); n != 1 {
				t.Fatalf("cosim.skew_wait_timeouts = %d, want 1", n)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines polls until the goroutine count is at most want.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after teardown, baseline %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// neverStopping are guests that never reach a breakpoint: one computes,
// one idles in WFI with no interrupt to wake it.
var neverStopping = []struct{ name, src string }{
	{"spin", spinSrc},
	{"wfi", strings.Replace(spinSrc, "spin:\n    j    spin", "idle:\n    wfi\n    j    idle", 1)},
}

// TestGDBKernelEndsNeverStoppingGuestAtRunEnd: a guest that never stops,
// spinning or idle in WFI, ends the run at its end on every transport,
// with no error: its continues end in timer stops, served by resuming
// at their own time and counted neither as stops nor as polls, and the
// first one at or after the end is never served. Teardown leaves no
// goroutine.
func TestGDBKernelEndsNeverStoppingGuestAtRunEnd(t *testing.T) {
	const period, end = 10 * sim.NS, 2 * sim.MS
	for _, tr := range transport.All() {
		for _, gs := range neverStopping {
			t.Run(tr.Name()+"/"+gs.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cpu, im := buildBareMetal(t, gs.src)
				target, err := StartGDBTarget(cpu, tr)
				if err != nil {
					t.Fatal(err)
				}
				reg := obs.NewRegistry()
				k := sim.NewKernel("top")
				g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
					CommonOptions: CommonOptions{CPUPeriod: period, Obs: reg},
					Bindings:      doublerBindings,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := k.Run(end); err != nil || g.Err() != nil {
					t.Fatalf("run: %v, scheme error %v", err, g.Err())
				}
				if at := sim.Time(0).AddCycles(cpu.Cycles(), period); at.Before(end) {
					t.Fatalf("the guest's last stop at %v lies before the run's end %v", at, end)
				}
				st := g.Stats()
				if st.Stops != 0 || st.Polls != 0 || reg.Counter("cosim.stops").Load() != 0 {
					t.Fatalf("stats %+v, cosim.stops %d; want no stop counted", st, reg.Counter("cosim.stops").Load())
				}
				if n := reg.Counter("cosim.skew_waits").Load(); n < 2 {
					t.Fatalf("cosim.skew_waits = %d, want a resume per timer stop", n)
				}
				k.Shutdown()
				if err := target.Wait(); err != nil {
					t.Fatalf("stub: %v", err)
				}
				waitGoroutines(t, baseline)
			})
		}
	}
}

// TestGDBTargetHangsUpOnClose: on every transport closing HostConn, as
// the stop watchdog does from its own goroutine, ends the stub with no
// hang-up signal: the chunk it runs finishes, its reply's write or its
// next read fails, and it ends. A guest that never stops, spinning or
// idle in WFI, has the client's resumes then fail, the stub end within a
// second of the close, and no goroutine left.
func TestGDBTargetHangsUpOnClose(t *testing.T) {
	for _, tr := range transport.All() {
		for _, gs := range neverStopping {
			t.Run(tr.Name()+"/"+gs.name, func(t *testing.T) {
				baseline := runtime.NumGoroutine()
				cpu, _ := buildBareMetal(t, gs.src)
				target, err := StartGDBTarget(cpu, tr)
				if err != nil {
					t.Fatal(err)
				}
				cl, err := gdb.NewClient(target.HostConn)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 3; i++ {
					if ev, err := cl.Continue(); err != nil || !ev.Timer() {
						t.Fatalf("continue %d = %v, %v; want a timer stop", i, ev, err)
					}
				}
				closed := make(chan time.Time, 1)
				go func() {
					closed <- time.Now()
					target.HostConn.Close()
				}()
				for {
					if _, err := cl.Continue(); err != nil {
						break
					}
				}
				waited := make(chan struct{})
				go func() {
					_ = target.Wait()
					close(waited)
				}()
				select {
				case <-waited:
				case <-time.After(time.Second):
					t.Fatal("the stub still runs 1s after its resumes failed")
				}
				if took := time.Since(<-closed); took >= time.Second {
					t.Fatalf("the stub ended %v after the host end closed, want under 1s", took)
				}
				_ = cl.Kill()
				waitGoroutines(t, baseline)
			})
		}
	}
}

// computeDoublerSrc is doublerSrc with about 240 000 instructions, several
// stub chunks, between the request and the response.
var computeDoublerSrc = strings.Replace(doublerSrc, "    add  a1, a0, a0\n", `    li   t0, 120000
work:
    addi t0, t0, -1
    bne  t0, zero, work
    add  a1, a0, a0
`, 1)

// TestGDBKernelComputesChunksBetweenStops: a guest that computes for
// several chunks between two stops gets timer stops on the way, which
// change nothing the kernel sees: each transfer lands at the simulated
// time of its own stop's cycle stamp, only the breakpoints count as
// stops, and the journal is the same over every transport.
func TestGDBKernelComputesChunksBetweenStops(t *testing.T) {
	const period = 10 * sim.NS
	var first []JournalEntry
	for _, tr := range transport.All() {
		t.Run(tr.Name(), func(t *testing.T) {
			cpu, im := buildBareMetal(t, computeDoublerSrc)
			target, err := StartGDBTarget(cpu, tr)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			jl := NewJournal(0)
			k := sim.NewKernel("top")
			g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
				CommonOptions: CommonOptions{CPUPeriod: period, Journal: jl, Obs: reg},
				Bindings:      doublerBindings,
			})
			if err != nil {
				t.Fatal(err)
			}
			resultsP := driveDoubler(t, k, 3)
			if err := k.Run(sim.MaxTime); err != nil || g.Err() != nil {
				t.Fatalf("run: %v, scheme error %v", err, g.Err())
			}
			k.Shutdown()
			_ = target.Wait()
			if r := *resultsP; len(r) != 3 || r[0] != 2 || r[1] != 4 || r[2] != 6 {
				t.Fatalf("results = %v, want [2 4 6]", r)
			}
			if st := g.Stats(); st.Stops != 6 || st.Transfers != 6 {
				t.Fatalf("stats %+v, want 6 stops and 6 transfers", st)
			}
			if waits := reg.Counter("cosim.skew_waits").Load(); waits < 6+3*4 {
				t.Fatalf("cosim.skew_waits = %d, want the timer stops' resumes too", waits)
			}
			entries := jl.Entries()
			for _, e := range entries {
				// The guest never waits for a request, so its stops map
				// to cycles times the period from time 0.
				if e.Dir == "iss->sc" && e.Time != sim.Time(0).AddCycles(e.Cycles, period) {
					t.Fatalf("transfer %+v lands off its stop's time %v", e, sim.Time(0).AddCycles(e.Cycles, period))
				}
			}
			if first == nil {
				first = entries
			} else if !slices.Equal(entries, first) {
				t.Fatalf("journal over %s:\n%v\nwant, as over %s:\n%v", tr.Name(), entries, transport.All()[0].Name(), first)
			}
		})
	}
}

// TestStopWithoutExpeditedRegistersFails: handleStop takes the PC and
// cycle counter from the stop reply and never falls back to a 'g'
// transaction, so a stop reply without them (an ECALL's S1f) fails the
// scheme with an error naming the reply and the scheme.
func TestStopWithoutExpeditedRegistersFails(t *testing.T) {
	for _, scheme := range []string{"gdb-kernel", "gdb-wrapper"} {
		t.Run(scheme, func(t *testing.T) {
			cpu, im := buildBareMetal(t, strings.Replace(doublerSrc, "_start:\n", "_start:\n    ecall\n", 1))
			target, err := StartGDBTarget(cpu, TransportPipe)
			if err != nil {
				t.Fatal(err)
			}
			k := sim.NewKernel("top")
			clk := sim.NewClock(k, "clk", 10*sim.NS)
			var sch interface{ Err() error }
			if scheme == "gdb-kernel" {
				sch, err = NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
					CommonOptions: CommonOptions{CPUPeriod: sim.NS},
					Bindings:      doublerBindings,
				})
			} else {
				sch, err = NewGDBWrapper(k, target.HostConn, im, GDBWrapperOptions{
					Clock: clk, Bindings: doublerBindings,
				})
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := k.Run(100 * sim.NS); err != nil {
				t.Fatal(err)
			}
			k.Shutdown()
			_ = target.Wait()
			want := scheme + ": stop reply S1f carries no expedited PC and cycle counter"
			if err := sch.Err(); err == nil || err.Error() != want {
				t.Fatalf("scheme error = %v, want %q", err, want)
			}
		})
	}
}

func TestGDBWrapperEndToEnd(t *testing.T) {
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	clk := sim.NewClock(k, "clk", 10*sim.NS)
	w, err := NewGDBWrapper(k, target.HostConn, im, GDBWrapperOptions{
		Clock:         clk,
		InstrPerCycle: 4,
		Bindings:      doublerBindings,
	})
	if err != nil {
		t.Fatal(err)
	}
	resultsP := driveDoubler(t, k, 5)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (scheme err %v)", err, w.Err())
	}
	k.Shutdown()
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	results := *resultsP
	want := []uint32{2, 4, 6, 8, 10}
	if len(results) != len(want) {
		t.Fatalf("results = %v", results)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v", results)
		}
	}
	// Lock-step: the wrapper must have polled many times per transfer.
	if w.Stats().Polls <= w.Stats().Transfers {
		t.Fatalf("polls=%d transfers=%d: not lock-step", w.Stats().Polls, w.Stats().Transfers)
	}
	_ = target.Wait()
}

// driverDoublerSrc is the RTOS guest for the Driver-Kernel scheme.
const driverDoublerSrc = `
main:
    la   a0, my_isr
    call cosim_register_isr
mloop:
wait_req:
    di
    la   t0, flag
    lw   t1, 0(t0)
    bnez t1, have_req
    wfi
    ei
    j    wait_req
have_req:
    ei
    la   t0, flag
    sw   zero, 0(t0)
    la   a0, port_req
    addi a1, zero, 3
    la   a2, buf
    addi a3, zero, 4
    call cosim_read
    la   t0, buf
    lw   t1, 0(t0)
    add  t1, t1, t1
    sw   t1, 0(t0)
    la   a0, port_resp
    addi a1, zero, 4
    la   a2, buf
    addi a3, zero, 4
    call cosim_write
    j    mloop

my_isr:
    la   t0, flag
    addi t1, zero, 1
    sw   t1, 0(t0)
    ret

.data
port_req:  .asciz "req"
port_resp: .asciz "resp"
.align 4
flag: .word 0
buf:  .word 0
`

func TestDriverKernelEndToEnd(t *testing.T) {
	for _, tr := range []Transport{TransportPipe, TransportTCP} {
		im, err := rtos.Build(asm.Source{Name: "app.s", Text: driverDoublerSrc})
		if err != nil {
			t.Fatal(err)
		}
		p := dev.NewPlatform(0, nil)
		if err := im.LoadInto(p.RAM); err != nil {
			t.Fatal(err)
		}
		p.CPU.Reset(im.Entry)
		target, err := ConnectDriverTarget(p, tr)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel("top")
		sim.NewClock(k, "clk", 10*sim.NS)
		d, err := NewDriverKernel(k, []DriverChannel{{
			Data: target.DataHost, IRQ: target.IRQHost, Guest: p,
			Ports: []VarBinding{
				{Port: "req", Dir: ToISS},
				{Port: "resp", Dir: ToSystemC},
			},
		}}, DriverKernelOptions{CommonOptions: CommonOptions{CPUPeriod: sim.NS}})
		if err != nil {
			t.Fatal(err)
		}
		var results []uint32
		req, _ := k.IssOutPort("req")
		resp, _ := k.IssInPort("resp")
		sent := 0
		k.Method("driver", func() {
			if sent > 0 {
				results = append(results, resp.Uint32())
			}
			if sent == 5 {
				k.Stop()
				return
			}
			sent++
			req.WriteUint32(uint32(sent))
			d.RaiseInterruptCPU(0, 7) // "new request" doorbell
		}, resp.Event())
		if err := k.Run(sim.MaxTime); err != nil {
			t.Fatalf("run: %v (scheme err %v)", err, d.Err())
		}
		k.Shutdown()
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		want := []uint32{2, 4, 6, 8, 10}
		if len(results) != len(want) {
			t.Fatalf("results = %v", results)
		}
		for i := range want {
			if results[i] != want[i] {
				t.Fatalf("results = %v", results)
			}
		}
		if d.Stats().IntsNotified < 5 {
			t.Fatalf("interrupts notified = %d", d.Stats().IntsNotified)
		}
	}
}

func TestBindingResolutionErrors(t *testing.T) {
	_, im := buildBareMetal(t, doublerSrc)
	k := sim.NewKernel("t")
	cases := []VarBinding{
		{Port: "p", Var: "nosuchvar", Size: 4, Dir: ToISS, Label: "bp_req"},
		{Port: "p", Var: "req", Size: 4, Dir: ToISS, Label: "nosuchlabel"},
		{Port: "p", Var: "req", Size: 4, Dir: ToISS},
		{Port: "p", Var: "req", Size: 0, Dir: ToISS, Label: "bp_req"},
		{Port: "p", Var: "req", Size: 4, Dir: ToISS, File: "guest.s", Line: 9999},
	}
	for i, c := range cases {
		if _, _, err := resolveBindings(k, im, []VarBinding{c}); err == nil {
			t.Errorf("case %d: no error for %+v", i, c)
		}
	}
}

func TestLineBasedBindings(t *testing.T) {
	// The paper's file:line programming model: iss_out breakpoints on
	// the read line, iss_in breakpoints on the line after the store.
	src := `_start:
    la   s0, req
    la   s1, resp
loop:
    lw   a0, 0(s0)
    add  a1, a0, a0
    sw   a1, 0(s1)
    nop
    j    loop
.data
.align 4
req:  .word 0
resp: .word 0
`
	cpu, im := buildBareMetal(t, src)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	sim.NewClock(k, "clk", 10*sim.NS)
	g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
		Bindings: []VarBinding{
			// The lw is on line 5; the sw on line 7 (break at line 8).
			{Port: "req", Var: "req", Size: 4, Dir: ToISS, File: "guest.s", Line: 5},
			{Port: "resp", Var: "resp", Size: 4, Dir: ToSystemC, File: "guest.s", Line: 7},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resultsP := driveDoubler(t, k, 3)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (%v)", err, g.Err())
	}
	k.Shutdown()
	if results := *resultsP; len(results) != 3 || results[2] != 6 {
		t.Fatalf("results = %v", results)
	}
	_ = target.Wait()
}

func readFullConn(c interface{ Read([]byte) (int, error) }, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

func TestWatchBindingMode(t *testing.T) {
	// The watchpoint binding extension: the response transfer triggers
	// on the store to the variable (gdb Z2), no code breakpoint needed.
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	sim.NewClock(k, "clk", 10*sim.NS)
	g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: sim.NS},
		Bindings: []VarBinding{
			{Port: "req", Var: "req", Size: 4, Dir: ToISS, Label: "bp_req"},
			{Port: "resp", Var: "resp", Size: 4, Dir: ToSystemC, Watch: true},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	resultsP := driveDoubler(t, k, 4)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (%v)", err, g.Err())
	}
	k.Shutdown()
	if g.Err() != nil {
		t.Fatal(g.Err())
	}
	results := *resultsP
	want := []uint32{2, 4, 6, 8}
	if len(results) != len(want) {
		t.Fatalf("results = %v", results)
	}
	for i := range want {
		if results[i] != want[i] {
			t.Fatalf("results = %v", results)
		}
	}
	_ = target.Wait()
}

func TestWatchBindingRejectsToISS(t *testing.T) {
	_, im := buildBareMetal(t, doublerSrc)
	k := sim.NewKernel("t")
	_, _, err := resolveBindings(k, im, []VarBinding{
		{Port: "p", Var: "req", Size: 4, Dir: ToISS, Watch: true},
	})
	if err == nil {
		t.Fatal("watch binding with ToISS accepted")
	}
}

// pragmaDoublerSrc is the doubler annotated with the paper's §3.2
// pragmas instead of labels.
const pragmaDoublerSrc = `
_start:
    la   s0, req
    la   s1, resp
loop:
;#cosim iss_out port=req var=req size=4
    lw   a0, 0(s0)
    add  a1, a0, a0
;#cosim iss_in port=resp var=resp size=4
    sw   a1, 0(s1)
    nop
    j    loop
.data
.align 4
req:  .word 0
resp: .word 0
`

func TestParsePragmas(t *testing.T) {
	src := asm.Source{Name: "guest.s", Text: pragmaDoublerSrc}
	bindings, err := ParsePragmas(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d", len(bindings))
	}
	out, in := bindings[0], bindings[1]
	if out.Dir != ToISS || out.Port != "req" || out.Var != "req" || out.Size != 4 {
		t.Fatalf("iss_out binding = %+v", out)
	}
	if in.Dir != ToSystemC || in.Port != "resp" || in.Var != "resp" {
		t.Fatalf("iss_in binding = %+v", in)
	}
	// The lw is on the line after the first pragma.
	if out.Line != 7 {
		t.Fatalf("iss_out line = %d", out.Line)
	}
}

func TestParsePragmasErrors(t *testing.T) {
	bad := []string{
		";#cosim\n",
		";#cosim sideways port=p var=v\n",
		";#cosim iss_in port=p\n",
		";#cosim iss_in var=v\n",
		";#cosim iss_in port=p var=v size=zero\n",
		";#cosim iss_in port=p var=v bogus=1\n",
	}
	for _, src := range bad {
		if _, err := ParsePragmas(asm.Source{Name: "b.s", Text: src}); err == nil {
			t.Errorf("pragma %q accepted", src)
		}
	}
}

func TestPragmaDrivenCoSimulation(t *testing.T) {
	// End to end: the pragma filter alone configures the co-simulation.
	src := asm.Source{Name: "guest.s", Text: pragmaDoublerSrc}
	bindings, err := ParsePragmas(src)
	if err != nil {
		t.Fatal(err)
	}
	cpu, im := buildBareMetal(t, pragmaDoublerSrc)
	_ = cpu
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	sim.NewClock(k, "clk", 10*sim.NS)
	g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: sim.NS},
		Bindings:      bindings,
	})
	if err != nil {
		t.Fatal(err)
	}
	resultsP := driveDoubler(t, k, 3)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (%v)", err, g.Err())
	}
	k.Shutdown()
	if results := *resultsP; len(results) != 3 || results[2] != 6 {
		t.Fatalf("results = %v", results)
	}
	_ = target.Wait()
}

func TestJournalRecordsTransfers(t *testing.T) {
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	sim.NewClock(k, "clk", 10*sim.NS)
	jl := NewJournal(0)
	g, err := NewGDBKernel(k, target.HostConn, im, GDBKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: sim.NS, Journal: jl},
		Bindings:      doublerBindings,
	})
	if err != nil {
		t.Fatal(err)
	}
	resultsP := driveDoubler(t, k, 3)
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatalf("run: %v (%v)", err, g.Err())
	}
	k.Shutdown()
	if len(*resultsP) != 3 {
		t.Fatalf("results = %v", *resultsP)
	}
	entries := jl.Entries()
	// 3 exchanges = 3 pokes (sc->iss) + 3 deliveries (iss->sc).
	if len(entries) != 6 {
		t.Fatalf("journal has %d entries, want 6:\n%v", len(entries), entries)
	}
	var toISS, toSC int
	var last sim.Time
	for _, e := range entries {
		if e.Scheme != "gdb-kernel" {
			t.Fatalf("entry scheme = %q", e.Scheme)
		}
		switch e.Dir {
		case "sc->iss":
			toISS++
			if e.Port != "req" || e.Bytes != 4 {
				t.Fatalf("bad poke entry %+v", e)
			}
		case "iss->sc":
			toSC++
			if e.Port != "resp" || e.Bytes != 4 {
				t.Fatalf("bad delivery entry %+v", e)
			}
		}
		if e.Time < last {
			t.Fatalf("journal not time-ordered: %v", entries)
		}
		last = e.Time
	}
	if toISS != 3 || toSC != 3 {
		t.Fatalf("toISS=%d toSC=%d", toISS, toSC)
	}
	var csv bytes.Buffer
	if err := jl.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("time_ps,scheme,dir,port,bytes,cycles")) {
		t.Fatal("CSV header missing")
	}
	_ = target.Wait()
}

func TestJournalLimitAndNilSafety(t *testing.T) {
	jl := NewJournal(2)
	for i := 0; i < 5; i++ {
		jl.Record(JournalEntry{Port: "p", Time: sim.Time(i)})
	}
	if jl.Len() != 2 || jl.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", jl.Len(), jl.Dropped())
	}
	if jl.Entries()[0].Time != 3 {
		t.Fatalf("entries = %v", jl.Entries())
	}
	var nilJournal *Journal
	nilJournal.Record(JournalEntry{}) // must not panic
}

package gdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"cosim/internal/asm"
	"cosim/internal/iss"
	link "cosim/internal/transport"
)

// escape returns the escaped wire form of a payload: its frame without
// the leading '$' and the trailing "#xx".
func escape(b []byte) []byte {
	f := appendFrame(nil, b)
	return f[1 : len(f)-3]
}

func TestChecksumAndEscape(t *testing.T) {
	if checksum([]byte("OK")) != 0x9a {
		t.Fatalf("checksum(OK) = %#x", checksum([]byte("OK")))
	}
	in := []byte("a$b#c}d*e")
	esc := escape(in)
	for _, forbidden := range []byte{'$', '#', '*'} {
		for i, c := range esc {
			if c == forbidden && (i == 0 || esc[i-1] != 0x7d) {
				t.Fatalf("unescaped %q in %q", string(forbidden), esc)
			}
		}
	}
	if got := unescape(esc); !bytes.Equal(got, in) {
		t.Fatalf("unescape(escape(%q)) = %q", in, got)
	}
}

func TestEscapeRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		return bytes.Equal(unescape(escape(data)), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHexRoundTripProperty(t *testing.T) {
	f := func(data []byte) bool {
		dec, err := appendUnhex(nil, appendHex(nil, data))
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	g := func(v uint32) bool {
		got, err := parseU32LE(appendHexU32LE(nil, v))
		return err == nil && got == v
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestTransportPacketRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ta, tb := newTransport(a), newTransport(b)
	go func() {
		_ = ta.sendPacket([]byte("m1000,4"))
	}()
	pkt, err := tb.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt) != "m1000,4" {
		t.Fatalf("pkt = %q", pkt)
	}
	if tb.stats.PacketsRecv != 1 {
		t.Fatalf("stats = %+v", tb.stats)
	}
}

func TestTransportChecksumRejection(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tb := newTransport(b)
	go func() {
		// Corrupt checksum first, then a valid packet after the NAK.
		_, _ = a.Write([]byte("$OK#00"))
		buf := make([]byte, 1)
		_, _ = a.Read(buf) // expect '-'
		if buf[0] != '-' {
			t.Errorf("expected NAK, got %q", buf)
		}
		_, _ = a.Write([]byte("$OK#9a"))
		_, _ = a.Read(buf) // consume '+'
	}()
	pkt, err := tb.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt) != "OK" {
		t.Fatalf("pkt = %q", pkt)
	}
}

// testCPU assembles a program and loads it into a fresh CPU.
func testCPU(t *testing.T, src string) (*iss.CPU, *asm.Image) {
	t.Helper()
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		t.Fatal(err)
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)
	return cpu, im
}

// newTarget assembles a program and serves it over an in-memory pipe,
// returning a connected client.
func newTarget(t *testing.T, src string) (*Client, *iss.CPU, *asm.Image) {
	t.Helper()
	return newTargetOver(t, link.Pipe, src)
}

// newTargetOver is newTarget over a pair of tr.
func newTargetOver(t *testing.T, tr link.Transport, src string) (*Client, *iss.CPU, *asm.Image) {
	t.Helper()
	cpu, im := testCPU(t, src)
	host, target, err := tr.Pair()
	if err != nil {
		t.Fatal(err)
	}
	stub := NewStub(cpu, target)
	go func() {
		_ = stub.Serve()
		target.Close()
	}()
	cl, err := NewClient(host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Kill(); host.Close() })
	return cl, cpu, im
}

const testProg = `
_start:
    addi a0, zero, 1
work:
    addi a0, a0, 10
after:
    addi a0, a0, 100
    halt
.data
var: .word 0xCAFEBABE
`

func TestReadWriteMemory(t *testing.T) {
	cl, _, im := newTarget(t, testProg)
	addr := im.MustSymbol("var")
	data, err := cl.ReadMemory(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 0xbe || data[3] != 0xca {
		t.Fatalf("var = % x", data)
	}
	if err := cl.WriteMemory(addr, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	back, _ := cl.ReadMemory(addr, 4)
	if !bytes.Equal(back, []byte{1, 2, 3, 4}) {
		t.Fatalf("after write = % x", back)
	}
}

func TestSoftwareBreakpointRoundTrip(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	bp := im.MustSymbol("after")
	orig, _ := cpu.Bus().Read(bp, 4)
	if err := cl.SetBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	// A memory read returns the program's word, not a breakpoint.
	visible, err := cl.ReadMemory(bp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(visible); got != orig {
		t.Fatalf("memory read at the breakpoint = %#x, want the original word %#x", got, orig)
	}

	ev, err := cl.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Signal != 5 {
		t.Fatalf("signal = %d", ev.Signal)
	}
	if cpu.PC != bp {
		t.Fatalf("stopped at %#x, want %#x", cpu.PC, bp)
	}
	if cpu.Regs[10] != 11 {
		t.Fatalf("a0 = %d at breakpoint", cpu.Regs[10])
	}

	// Resume to completion: the CPU must step over the breakpoint.
	ev, err = cl.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Exited || ev.ExitCode != 0 {
		t.Fatalf("final stop = %+v", ev)
	}
	if cpu.Regs[10] != 111 {
		t.Fatalf("final a0 = %d", cpu.Regs[10])
	}
}

func TestStep(t *testing.T) {
	cl, cpu, _ := newTarget(t, testProg)
	ev, err := cl.Step()
	if err != nil || ev.Signal != 5 {
		t.Fatalf("step = %+v, %v", ev, err)
	}
	if cpu.PC != 4 || cpu.Regs[10] != 1 {
		t.Fatalf("pc=%#x a0=%d after one step", cpu.PC, cpu.Regs[10])
	}
}

func TestStepOffPlantedBreakpoint(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	bp := im.MustSymbol("work")
	_ = cl.SetBreakpoint(bp)
	if _, err := cl.Continue(); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.Step()
	if err != nil || ev.Signal != 5 {
		t.Fatalf("step = %+v, %v", ev, err)
	}
	if cpu.Regs[10] != 11 {
		t.Fatalf("a0 = %d: breakpointed instruction did not execute", cpu.Regs[10])
	}
}

func TestWatchpointReply(t *testing.T) {
	cl, _, im := newTarget(t, `
_start:
    la   gp, target
    addi a0, zero, 9
    sw   a0, 0(gp)
    halt
.data
target: .word 0
`)
	wa := im.MustSymbol("target")
	if err := cl.SetWatchpoint(wa, 4); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if !ev.IsWatch || ev.WatchAddr != wa {
		t.Fatalf("stop = %+v", ev)
	}
}

func TestRunQuantumLockStep(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	bp := im.MustSymbol("after")
	_ = cl.SetBreakpoint(bp)
	// Drive the target one instruction per quantum, as the GDB-Wrapper
	// scheme does per clock cycle.
	quanta := 0
	for {
		ev, _, err := cl.RunQuantum(1)
		if err != nil {
			t.Fatal(err)
		}
		quanta++
		if ev != nil {
			if ev.Signal != 5 {
				t.Fatalf("signal = %d", ev.Signal)
			}
			break
		}
		if quanta > 100 {
			t.Fatal("breakpoint never reached")
		}
	}
	if cpu.PC != bp {
		t.Fatalf("pc = %#x, want %#x", cpu.PC, bp)
	}
	if cpu.Regs[10] != 11 {
		t.Fatalf("a0 = %d", cpu.Regs[10])
	}
	// Resuming over the breakpoint with further quanta must
	// execute the program to completion.
	for {
		ev, _, err := cl.RunQuantum(10)
		if err != nil {
			t.Fatal(err)
		}
		if ev != nil {
			if !ev.Exited {
				t.Fatalf("stop = %+v", ev)
			}
			break
		}
	}
	if cpu.Regs[10] != 111 {
		t.Fatalf("final a0 = %d", cpu.Regs[10])
	}
}

func TestRunQuantumReportsExecuted(t *testing.T) {
	cl, _, _ := newTarget(t, `
_start:
spin:
    j spin
`)
	ev, n, err := cl.RunQuantum(25)
	if err != nil {
		t.Fatal(err)
	}
	if ev != nil {
		t.Fatalf("unexpected stop %+v", ev)
	}
	if n != 25 {
		t.Fatalf("executed = %d, want 25", n)
	}
}

// TestContinueStopSession runs a debug session across the stop read:
// the stop that ends a continue is returned by the continue itself,
// within the stop timeout, and the transactions after it read their
// replies inline.
func TestContinueStopSession(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	cl.SetStopTimeout(2 * time.Second)
	bp := im.MustSymbol("after")
	if err := cl.SetBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.Continue()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Signal != 5 || ev.PC != bp {
		t.Fatalf("stop = %+v, want SIGTRAP at %#x", ev, bp)
	}
	v, err := cl.ReadMemory(im.MustSymbol("var"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 0xbe {
		t.Fatalf("var = % x", v)
	}
	ev, err = cl.Continue()
	if err != nil || !ev.Exited {
		t.Fatalf("final = %+v, %v", ev, err)
	}
	if cpu.Regs[10] != 111 {
		t.Fatalf("a0 = %d", cpu.Regs[10])
	}
}

func TestOverTCP(t *testing.T) {
	im, err := asm.Assemble(asm.Options{}, asm.Source{Name: "t.s", Text: testProg})
	if err != nil {
		t.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	_ = im.LoadInto(ram)
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		stub := NewStub(cpu, conn)
		_ = stub.Serve()
		conn.Close()
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Kill(); conn.Close() }()

	bp := im.MustSymbol("after")
	if err := cl.SetBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.Continue()
	if err != nil || ev.Signal != 5 || !ev.Expedited || ev.Cycles == 0 {
		t.Fatalf("tcp stop = %+v, %v", ev, err)
	}
}

func TestParseStop(t *testing.T) {
	cases := []struct {
		in   string
		want StopEvent
	}{
		{"S05", StopEvent{Signal: 5}},
		{"S02", StopEvent{Signal: 2}},
		{"T1a20:08000000;26:f7240100;27:00000000;",
			StopEvent{Signal: SigTimer, Expedited: true, PC: 8, Cycles: 0x124f7}},
		{"W00", StopEvent{Exited: true}},
		{"W2a", StopEvent{Exited: true, ExitCode: 42}},
		{"T05watch:10004;", StopEvent{Signal: 5, IsWatch: true, WatchAddr: 0x10004}},
		{"T05swbreak:;", StopEvent{Signal: 5}},
		// Expedited registers: PC (20) and the cycle counter (26, 27)
		// in target byte order.
		{"T05swbreak:;20:10100000;26:78563412;27:02000000;",
			StopEvent{Signal: 5, Expedited: true, PC: 0x1010, Cycles: 0x2_12345678}},
		{"T05watch:10004;20:0c000000;26:05000000;27:00000000;",
			StopEvent{Signal: 5, IsWatch: true, WatchAddr: 0x10004, Expedited: true, PC: 0xc, Cycles: 5}},
		{"T0527:01000000;thread:1;20:04000000;26:ffffffff;swbreak:;",
			StopEvent{Signal: 5, Expedited: true, PC: 4, Cycles: 0x1_ffffffff}},
		// Other registers are skipped; a partial set is not expedited.
		{"T0505:aabbccdd;20:04000000;26:01000000;",
			StopEvent{Signal: 5, PC: 4, Cycles: 1}},
	}
	for _, c := range cases {
		var got StopEvent
		if err := parseStop([]byte(c.in), &got); err != nil {
			t.Errorf("parseStop(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("parseStop(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{
		"", "S", "Q05", "Sxx",
		"T05watch:;", "T05watch:xyz;", "T05watch:100000000;",
		"T05swbreak:;20:1234;26:00000000;27:00000000;",
		"T05swbreak:;20:0400000g;26:00000000;27:00000000;",
		"T05swbreak:;20;26:00000000;27:00000000;",
		"T05watch:10;20:04000000;26:00000000;27:000000000;",
	} {
		if err := parseStop([]byte(bad), new(StopEvent)); err == nil {
			t.Errorf("parseStop(%q) succeeded", bad)
		}
	}
}

// FuzzParseStop feeds arbitrary replies to parseStop, which must never
// panic, and checks that a breakpoint or watchpoint stop reply built as
// the stub builds it parses back to its PC, cycle counter and watch
// address, as does the event's String form.
func FuzzParseStop(f *testing.F) {
	f.Add([]byte("T05swbreak:;20:10100000;26:78563412;27:02000000;"), false, uint32(0), uint32(0x1010), uint64(0x2_12345678))
	f.Add([]byte("T05watch:10004;"), true, uint32(0x10004), uint32(4), uint64(5))
	f.Add([]byte("T05;;:;20:;watch;27"), true, uint32(0), uint32(0), uint64(0))
	f.Add([]byte("S1f"), false, uint32(0), ^uint32(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, reply []byte, watch bool, addr, pc uint32, cycles uint64) {
		_ = parseStop(reply, new(StopEvent))
		want := StopEvent{Signal: 5, IsWatch: watch, Expedited: true, PC: pc, Cycles: cycles}
		if watch {
			want.WatchAddr = addr
		}
		built := appendStopT(nil, watch, addr, pc, cycles)
		for _, r := range [][]byte{built, []byte(want.String())} {
			var ev StopEvent
			if err := parseStop(r, &ev); err != nil || ev != want {
				t.Fatalf("parseStop(%q) = %v, %v; want %v", r, ev, err, want)
			}
		}
	})
}

// TestUnknownPacketGetsEmptyReply: a packet outside the set the
// schemes send, an interactive debugger's included, gets RSP's empty
// reply and changes nothing: the target still runs to its exit.
func TestUnknownPacketGetsEmptyReply(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	for _, pkt := range []string{
		"vMustReplyEmpty", "g", "?", "z0," + strconv.FormatUint(uint64(im.MustSymbol("after")), 16) + ",4",
		"D", "qSupported:swbreak+", "Z1,4,4", "c8", "Hg0", "p20", "P20=00000000",
	} {
		r, err := cl.transact([]byte(pkt))
		if err != nil {
			t.Fatalf("%q: %v", pkt, err)
		}
		if len(r) != 0 {
			t.Fatalf("%q: reply = %q, want empty", pkt, r)
		}
	}
	if cpu.PC != im.Entry || cpu.HasBreakpoint(4) {
		t.Fatalf("pc = %#x, breakpoint at 4 = %v after unsupported packets; want the entry and none", cpu.PC, cpu.HasBreakpoint(4))
	}
	ev, err := cl.Continue()
	if err != nil || !ev.Exited || cpu.Regs[10] != 111 {
		t.Fatalf("continue = %+v, %v with a0 = %d; want the exit with a0 = 111", ev, err, cpu.Regs[10])
	}
}

func TestExpandRLE(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"abc", "abc"},
		{"0* ", "0000"},                    // ' ' = 32 -> 3 extra zeros
		{"x*!", "xxxxx"},                   // '!' = 33 -> 4 extra
		{"ab*\x1dc", "abc"},                // count 0: no extra repeats
		{"1*&2*&", "11111111112222222222"}, // '&' = 38 -> 9 extra repeats
	}
	for _, c := range cases {
		got, err := expandRLE([]byte(c.in))
		if err != nil {
			t.Errorf("expandRLE(%q): %v", c.in, err)
			continue
		}
		if string(got) != c.want {
			t.Errorf("expandRLE(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"*!", "a*"} {
		if _, err := expandRLE([]byte(bad)); err == nil {
			t.Errorf("expandRLE(%q) accepted", bad)
		}
	}
}

func TestRLEThroughTransport(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	tb := newTransport(b)
	go func() {
		// "g0* " expands to "g0000"; checksum is over the wire form.
		payload := []byte("g0* ")
		frame := append([]byte{'$'}, payload...)
		sum := checksum(payload)
		frame = append(frame, '#', hexDigits[sum>>4], hexDigits[sum&0xf])
		_, _ = a.Write(frame)
		buf := make([]byte, 1)
		_, _ = a.Read(buf) // ack
	}()
	pkt, err := tb.readPacket()
	if err != nil {
		t.Fatal(err)
	}
	if string(pkt) != "g0000" {
		t.Fatalf("pkt = %q", pkt)
	}
}

// mutedEnd is a stub's end of a link that drops the stub's writes
// once mute is set: a peer that stops answering.
type mutedEnd struct {
	io.ReadWriteCloser
	mute *atomic.Bool
}

func (m mutedEnd) Write(p []byte) (int, error) {
	if m.mute.Load() {
		return len(p), nil
	}
	return m.ReadWriteCloser.Write(p)
}

// TestStopTimeout: the stop timeout trips only for a peer that stops
// answering. A spinning target's continues each end in a timer stop, so
// a series of them that outlasts the timeout never trips it, also after
// the watchdog has gone idle between them. Once the stub's replies are
// lost, the resume fails with ErrTimeout, not with the closed link the
// watchdog leaves, after at least the timeout and at most twice it, on
// every transport (the watchdog ends the wait by closing the link
// through io.Closer; a ring endpoint is no net.Conn), and Serve ends.
func TestStopTimeout(t *testing.T) {
	const d = 50 * time.Millisecond
	for _, tr := range link.All() {
		t.Run(tr.Name(), func(t *testing.T) {
			cpu, _ := testCPU(t, "_start:\nspin:\n    j spin\n")
			host, guest, err := tr.Pair()
			if err != nil {
				t.Fatal(err)
			}
			var mute atomic.Bool
			stub := NewStub(cpu, mutedEnd{guest, &mute})
			served := make(chan error, 1)
			go func() {
				served <- stub.Serve()
				guest.Close()
			}()
			cl, err := NewClient(host)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Kill(); host.Close() })
			cl.SetStopTimeout(d)
			for start := time.Now(); time.Since(start) < 3*d; {
				if ev, err := cl.Continue(); err != nil || !ev.Timer() {
					t.Fatalf("continue = %v, %v; want a timer stop", ev, err)
				}
			}
			time.Sleep(3 * d) // the watchdog ticks and goes idle
			if ev, err := cl.Continue(); err != nil || !ev.Timer() {
				t.Fatalf("continue after an idle watchdog = %v, %v; want a timer stop", ev, err)
			}

			mute.Store(true)
			start := time.Now()
			_, err = cl.Continue()
			if took := time.Since(start); !errors.Is(err, ErrTimeout) || took < d || took > 4*d {
				t.Fatalf("silent stub: %v after %v, want ErrTimeout after %v to %v", err, took, d, 2*d)
			}
			select {
			case <-served:
			case <-time.After(time.Second):
				t.Fatal("Serve still runs 1s after the watchdog closed the link")
			}
		})
	}
}

// TestTimerStop: a continue that runs its chunk with the guest still
// running ends in a timer stop that expedites the PC and the cycle
// counter: a spinning guest runs chunkBudget instructions, and a guest
// idle in WFI sleeps chunkBudget cycles per continue.
func TestTimerStop(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"spin", "_start:\nspin:\n    j spin\n"},
		{"wfi", "_start:\n    wfi\nidle:\n    j idle\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, cpu, _ := newTarget(t, c.src)
			var last uint64
			for i := 0; i < 3; i++ {
				before := cpu.Instructions()
				ev, err := cl.Continue()
				if err != nil || !ev.Timer() || !ev.Expedited || ev.PC != cpu.PC || ev.Cycles != cpu.Cycles() || ev.Cycles <= last {
					t.Fatalf("continue %d = %v, %v; want a timer stop at pc %#x, cycle %d, after cycle %d", i, ev, err, cpu.PC, cpu.Cycles(), last)
				}
				last = ev.Cycles
				if ran := cpu.Instructions() - before; c.name == "spin" && ran != chunkBudget {
					t.Fatalf("continue %d ran %d instructions, want %d", i, ran, chunkBudget)
				}
			}
			if c.name == "wfi" && (cpu.Instructions() != 1 || last != 1+2*chunkBudget) {
				t.Fatalf("%d instructions and %d cycles after three continues, want the WFI alone and two chunks of sleep", cpu.Instructions(), last)
			}
		})
	}
}

// computeProg computes about 20 M instructions between its breakpoints
// begin and target.
const computeProg = `
_start:
begin:
    li   t0, 10000000
count:
    addi t0, t0, -1
    bne  t0, zero, count
target:
    halt
`

// TestComputeOutlastsStopTimeout: a guest that computes for several
// stop timeouts between two breakpoints (20 M instructions against
// 50 ms) reaches the second with no error over tcp, pipe and the ring,
// served inline there as the kernel schemes serve it: every continue on
// the way ends in a timer stop, each well within the timeout.
func TestComputeOutlastsStopTimeout(t *testing.T) {
	const d = 50 * time.Millisecond
	for _, tr := range link.All() {
		t.Run(tr.Name(), func(t *testing.T) {
			var cl *Client
			var im *asm.Image
			if tr == link.Ring {
				cl, _, im, _ = newInlineTarget(t, computeProg)
			} else {
				cl, _, im = newTargetOver(t, tr, computeProg)
			}
			cl.SetStopTimeout(d)
			begin, target := im.MustSymbol("begin"), im.MustSymbol("target")
			for _, bp := range []uint32{begin, target} {
				if err := cl.SetBreakpoint(bp); err != nil {
					t.Fatal(err)
				}
			}
			if ev, err := cl.Continue(); err != nil || ev.Signal != 5 || ev.PC != begin {
				t.Fatalf("first continue = %v, %v; want the stop at begin", ev, err)
			}
			ev, timers, err := continueToStop(cl)
			if err != nil || ev.Signal != 5 || ev.PC != target {
				t.Fatalf("continue to target = %v, %v; want the stop at target", ev, err)
			}
			if timers < 20_000_000/chunkBudget-1 {
				t.Fatalf("%d timer stops on the way to target, want one per %d instructions", timers, chunkBudget)
			}
		})
	}
}

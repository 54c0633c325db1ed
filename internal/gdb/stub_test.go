package gdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/iss"
)

func netPipe() (net.Conn, net.Conn) { return net.Pipe() }

func TestWriteAllRegisters(t *testing.T) {
	cl, cpu, _ := newTarget(t, testProg)
	// Compose a G packet: read, tweak, write back.
	regs, err := cl.ReadRegisters()
	if err != nil {
		t.Fatal(err)
	}
	var payload []byte
	payload = append(payload, 'G')
	for i := 0; i < NumRSPRegs; i++ {
		var v uint32
		switch {
		case i < 32:
			v = uint32(i * 3)
		case i == RegPC:
			v = regs.PC
		}
		payload = appendHexU32LE(payload, v)
	}
	r, err := cl.transact(payload)
	if err != nil || string(r) != "OK" {
		t.Fatalf("G reply = %q, %v", r, err)
	}
	if cpu.Regs[5] != 15 || cpu.Regs[31] != 93 {
		t.Fatalf("regs after G: r5=%d r31=%d", cpu.Regs[5], cpu.Regs[31])
	}
	if cpu.Regs[0] != 0 {
		t.Fatal("G packet overwrote the zero register")
	}
}

func TestMemoryWriteOverPlantedBreakpoint(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	bp := im.MustSymbol("after")
	orig, _ := cpu.Bus().Read(bp, 4)
	if err := cl.SetBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	// Writing the original bytes over the breakpoint must keep it armed.
	var origBytes [4]byte
	binary.LittleEndian.PutUint32(origBytes[:], orig)
	if err := cl.WriteMemory(bp, origBytes[:]); err != nil {
		t.Fatal(err)
	}
	// Memory holds what was written, the breakpoint stays armed...
	if raw, _ := cpu.Bus().Read(bp, 4); raw != orig || !cpu.HasBreakpoint(bp) {
		t.Fatalf("memory at bp = %#x (want %#x), breakpoint armed %v", raw, orig, cpu.HasBreakpoint(bp))
	}
	// ...and it still fires.
	ev, err := cl.Continue()
	if err != nil || ev.Signal != 5 {
		t.Fatalf("stop = %+v, %v", ev, err)
	}
	if pc, _ := cl.ReadPC(); pc != bp {
		t.Fatalf("stopped at %#x, want the breakpoint %#x", pc, bp)
	}
}

// TestBreakpointKindsShareOneFlag: Z0 on memory the bus cannot read
// fails with E02 and arms nothing; Z0 and Z1 at one address are one
// breakpoint, so z0 clears one set by Z1.
func TestBreakpointKindsShareOneFlag(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	const unmapped = 0xfffffff0
	if _, err := cpu.Bus().Read(unmapped, 4); err == nil {
		t.Fatalf("test address %#x is readable", unmapped)
	}
	r, err := cl.transact(fmt.Appendf(nil, "Z0,%x,4", unmapped))
	if err != nil || string(r) != "E02" {
		t.Fatalf("Z0 at unreadable %#x = %q, %v; want E02", unmapped, r, err)
	}
	if cpu.HasBreakpoint(unmapped) {
		t.Fatal("a failed Z0 armed a breakpoint")
	}
	bp := im.MustSymbol("after")
	if err := cl.SetHWBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	if err := cl.ClearBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	if cpu.HasBreakpoint(bp) {
		t.Fatal("z0 left a Z1 breakpoint at the same address armed")
	}
}

func TestHaltReasonAfterStop(t *testing.T) {
	cl, _, im := newTarget(t, testProg)
	_ = cl.SetBreakpoint(im.MustSymbol("work"))
	if _, err := cl.Continue(); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.HaltReason()
	if err != nil || ev.Signal != 5 {
		t.Fatalf("halt reason = %+v, %v", ev, err)
	}
}

func TestRegisterWriteChangesPC(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	target := im.MustSymbol("after")
	if err := cl.WriteRegister(RegPC, target); err != nil {
		t.Fatal(err)
	}
	if cpu.PC != target {
		t.Fatalf("pc = %#x", cpu.PC)
	}
	// Continue from the redirected PC: program runs addi+halt only.
	ev, _ := cl.Continue()
	if !ev.Exited {
		t.Fatalf("stop = %+v", ev)
	}
	if cpu.Regs[10] != 100 {
		t.Fatalf("a0 = %d, want 100 (skipped the earlier adds)", cpu.Regs[10])
	}
}

func TestBadPacketsGetErrors(t *testing.T) {
	cl, _, _ := newTarget(t, testProg)
	for _, pkt := range []string{"p999", "mzzzz,4", "M100", "Zx", "qRun,0", "P5"} {
		r, err := cl.transact([]byte(pkt))
		if err != nil {
			t.Fatalf("%q: %v", pkt, err)
		}
		if len(r) > 0 && r[0] == 'E' {
			continue // error reply, good
		}
		if len(r) == 0 {
			continue // unsupported, acceptable
		}
		t.Errorf("packet %q got non-error reply %q", pkt, r)
	}
}

func TestStatsCount(t *testing.T) {
	cl, _, _ := newTarget(t, testProg)
	before := cl.Stats()
	if _, err := cl.ReadRegisters(); err != nil {
		t.Fatal(err)
	}
	after := cl.Stats()
	if after.PacketsSent != before.PacketsSent+1 || after.PacketsRecv != before.PacketsRecv+1 {
		t.Fatalf("stats did not advance: %+v -> %+v", before, after)
	}
	if after.BytesSent == 0 || after.BytesRecv == 0 {
		t.Fatal("byte counters empty")
	}
}

func TestRetransmitOnNAK(t *testing.T) {
	// A transport facing a peer that NAKs once must retransmit.
	clientEnd, stubEnd := pipePair()
	defer clientEnd.Close()
	defer stubEnd.Close()
	tr := newTransport(clientEnd)
	go func() {
		buf := make([]byte, 256)
		n, _ := stubEnd.Read(buf) // first copy
		_, _ = stubEnd.Write([]byte{'-'})
		n, _ = stubEnd.Read(buf) // retransmission
		_ = n
		_, _ = stubEnd.Write([]byte{'+'})
	}()
	if err := tr.sendPacket([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if tr.stats.Retransmits != 1 {
		t.Fatalf("retransmits = %d", tr.stats.Retransmits)
	}
}

func TestOversizedPacketRejected(t *testing.T) {
	clientEnd, stubEnd := pipePair()
	defer clientEnd.Close()
	defer stubEnd.Close()
	tr := newTransport(clientEnd)
	go func() {
		_, _ = stubEnd.Write([]byte{'$'})
		junk := bytes.Repeat([]byte{'a'}, MaxPacketSize*2+10)
		_, _ = stubEnd.Write(junk)
	}()
	if _, err := tr.readPacket(); err == nil {
		t.Fatal("oversized packet accepted")
	}
}

// pipePair and BreakWordForTest are small indirections so the tests
// avoid extra imports.
func pipePair() (a, b interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
	Close() error
}) {
	x, y := netPipe()
	return x, y
}

func TestTargetDescriptionXML(t *testing.T) {
	cl, _, _ := newTarget(t, testProg)
	feat, err := cl.QuerySupported()
	if err != nil || !bytes.Contains([]byte(feat), []byte("qXfer:features:read+")) {
		t.Fatalf("features = %q, %v", feat, err)
	}
	// Read the description in two windows and reassemble.
	var xml []byte
	off := 0
	for {
		r, err := cl.transact([]byte(fmt.Sprintf("qXfer:features:read:target.xml:%x,%x", off, 128)))
		if err != nil {
			t.Fatal(err)
		}
		if len(r) == 0 {
			t.Fatal("empty qXfer reply")
		}
		xml = append(xml, r[1:]...)
		off += len(r) - 1
		if r[0] == 'l' {
			break
		}
		if r[0] != 'm' {
			t.Fatalf("bad marker %q", r[0])
		}
	}
	for _, want := range []string{"<architecture>fv32</architecture>", `name="sp"`, `name="pc"`, `name="cycleh"`} {
		if !bytes.Contains(xml, []byte(want)) {
			t.Fatalf("target.xml missing %q:\n%s", want, xml)
		}
	}
	if _, err := cl.transact([]byte("qXfer:features:read:target.xml:zz")); err != nil {
		t.Fatal(err)
	}
}

// expediteProg loops forever storing a counter, so a breakpoint at bp
// and a watchpoint on target each stop it once per iteration.
const expediteProg = `
_start:
    la   gp, target
loop:
    addi a0, a0, 1
bp:
    sw   a0, 0(gp)
    j    loop
.data
target: .word 0
`

// TestStopReplyExpeditesPCAndCycles checks that breakpoint and
// watchpoint stop replies, whether they end a continue or a qRun
// quantum, carry the PC and cycle counter a following 'g' reads.
func TestStopReplyExpeditesPCAndCycles(t *testing.T) {
	cont := func(cl *Client) (*StopEvent, error) { return cl.Continue() }
	quantum := func(cl *Client) (*StopEvent, error) {
		for {
			ev, _, err := cl.RunQuantum(2)
			if ev != nil || err != nil {
				return ev, err
			}
		}
	}
	for _, c := range []struct {
		name  string
		watch bool
		stop  func(*Client) (*StopEvent, error)
	}{
		{"continue-breakpoint", false, cont},
		{"continue-watchpoint", true, cont},
		{"qRun-breakpoint", false, quantum},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl, _, im := newTarget(t, expediteProg)
			var err error
			if c.watch {
				err = cl.SetWatchpoint(im.MustSymbol("target"), 4)
			} else {
				err = cl.SetBreakpoint(im.MustSymbol("bp"))
			}
			if err != nil {
				t.Fatal(err)
			}
			var last uint64
			for i := 0; i < 3; i++ {
				ev, err := c.stop(cl)
				if err != nil {
					t.Fatal(err)
				}
				if !ev.Expedited || ev.IsWatch != c.watch {
					t.Fatalf("stop %d = %v, want an expedited %s stop", i, ev, c.name)
				}
				regs, err := cl.ReadRegisters()
				if err != nil {
					t.Fatal(err)
				}
				if ev.PC != regs.PC || ev.Cycles != regs.Cycles {
					t.Fatalf("stop %d expedited pc=%#x cycles=%d, g reads pc=%#x cycles=%d",
						i, ev.PC, ev.Cycles, regs.PC, regs.Cycles)
				}
				if ev.Cycles <= last {
					t.Fatalf("stop %d: cycles %d did not advance past %d", i, ev.Cycles, last)
				}
				last = ev.Cycles
			}
		})
	}
}

// pokeCounter counts the word stores made through a bus, by address:
// on a bus that is not a SystemBus the stub's memory writes go byte by
// byte, so its word stores are its breakpoint pokes.
type pokeCounter struct {
	iss.Bus
	pokes map[uint32]int
}

func (b *pokeCounter) Write(addr uint32, size int, v uint32) error {
	if size == 4 {
		b.pokes[addr]++
	}
	return b.Bus.Write(addr, size, v)
}

func TestMemoryWriteTouchesOnlyOverlappedBreakpoints(t *testing.T) {
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "t.s", Text: testProg})
	if err != nil {
		t.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		t.Fatal(err)
	}
	bus := &pokeCounter{Bus: iss.NewSystemBus(ram), pokes: make(map[uint32]int)}
	cpu := iss.New(bus)
	cpu.Reset(im.Entry)
	host, target := net.Pipe()
	go func() {
		_ = NewStub(cpu, target).Serve()
		target.Close()
	}()
	cl, err := NewClient(host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Kill(); host.Close() })

	work, after := im.MustSymbol("work"), im.MustSymbol("after")
	workWord, _ := ram.Read(work, 4)
	for _, bp := range []uint32{work, after} {
		if err := cl.SetBreakpoint(bp); err != nil {
			t.Fatal(err)
		}
	}
	// Breakpoints are the CPU's: setting them pokes no memory.
	if len(bus.pokes) != 0 {
		t.Fatalf("setting breakpoints poked memory: %v", bus.pokes)
	}

	// A data write away from both breakpoints pokes neither.
	if err := cl.WriteMemory(im.MustSymbol("var"), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if len(bus.pokes) != 0 {
		t.Fatalf("data write poked breakpoint words: %v", bus.pokes)
	}
	// A write straddling into `after` writes its own bytes alone: the
	// word takes them, reads see them, and both breakpoints stay armed.
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], workWord)
	if err := cl.WriteMemory(after+2, w[2:]); err != nil {
		t.Fatal(err)
	}
	if bus.pokes[work] != 0 || bus.pokes[after] != 0 {
		t.Fatalf("pokes = %v, want no word poked at either breakpoint", bus.pokes)
	}
	raw, _ := ram.Read(after, 4)
	if raw>>16 != workWord>>16 {
		t.Fatalf("memory at after = %#x, want its high half from %#x", raw, workWord)
	}
	if !cpu.HasBreakpoint(work) || !cpu.HasBreakpoint(after) {
		t.Fatal("a memory write disarmed a breakpoint")
	}
	origAfter, _ := cl.ReadMemory(after, 4)
	if got := binary.LittleEndian.Uint32(origAfter); got != raw {
		t.Fatalf("read word at after = %#x, want the memory's %#x", got, raw)
	}
}

// TestResumeAtAddressStopsAtBreakpointThere: after a breakpoint stop,
// "c addr" onto another breakpoint stops there before running it; the
// CPU's step-over belongs to the stop's own address.
func TestResumeAtAddressStopsAtBreakpointThere(t *testing.T) {
	cl, cpu, im := newTarget(t, testProg)
	work, after := im.MustSymbol("work"), im.MustSymbol("after")
	for _, bp := range []uint32{work, after} {
		if err := cl.SetBreakpoint(bp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Continue(); err != nil {
		t.Fatal(err)
	}
	if cpu.PC != work {
		t.Fatalf("first stop at %#x, want work %#x", cpu.PC, work)
	}
	if err := cl.t.sendPacket(fmt.Appendf(nil, "c%x", after)); err != nil {
		t.Fatal(err)
	}
	ev, err := cl.waitStop()
	if err != nil || ev.Signal != 5 {
		t.Fatalf("stop = %+v, %v", ev, err)
	}
	if cpu.PC != after || cpu.Regs[10] != 1 {
		t.Fatalf("stopped at %#x with a0 = %d, want after %#x with a0 = 1 (neither add run)", cpu.PC, cpu.Regs[10], after)
	}
}

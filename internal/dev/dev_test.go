package dev

import (
	"net"
	"strings"
	"testing"
	"time"

	"cosim/internal/asm"
	"cosim/internal/iss"
)

// fakeSink records CPU interrupt pin state.
type fakeSink struct{ raised map[int]bool }

func newFakeSink() *fakeSink { return &fakeSink{raised: make(map[int]bool)} }

func (s *fakeSink) RaiseIRQ(n int) { s.raised[n] = true }
func (s *fakeSink) ClearIRQ(n int) { s.raised[n] = false }

func TestPICAssertAggregates(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	pic.Assert(3)
	if !sink.raised[0] {
		t.Fatal("CPU pin not raised")
	}
	if pic.Pending() != 1<<3 {
		t.Fatalf("pending = %#x", pic.Pending())
	}
	pic.Deassert(3)
	if sink.raised[0] {
		t.Fatal("CPU pin still raised after deassert")
	}
}

func TestPICEnableMask(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	if err := pic.Write(PICEnable, 4, 0); err != nil {
		t.Fatal(err)
	}
	pic.Assert(1)
	if sink.raised[0] {
		t.Fatal("masked line raised CPU pin")
	}
	if err := pic.Write(PICEnable, 4, 0xffffffff); err != nil {
		t.Fatal(err)
	}
	if !sink.raised[0] {
		t.Fatal("unmasking did not raise pin for pending line")
	}
}

func TestPICAckAndRaiseRegisters(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	if err := pic.Write(PICRaise, 4, 0b110); err != nil {
		t.Fatal(err)
	}
	v, err := pic.Read(PICPending, 4)
	if err != nil || v != 0b110 {
		t.Fatalf("pending = %#x, %v", v, err)
	}
	if err := pic.Write(PICAck, 4, 0b010); err != nil {
		t.Fatal(err)
	}
	v, _ = pic.Read(PICPending, 4)
	if v != 0b100 {
		t.Fatalf("pending after ack = %#x", v)
	}
	if _, err := pic.Read(PICAck, 4); err == nil {
		t.Fatal("read of write-only register succeeded")
	}
}

func TestTimerCompareAndReload(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	tm := NewTimer(pic, TimerLine)
	_ = tm.Write(TimerCompare, 4, 100)
	_ = tm.Write(TimerReload, 4, 100)
	_ = tm.Write(TimerCtrl, 4, TimerCtrlEnable)

	tm.Advance(50)
	if sink.raised[0] {
		t.Fatal("timer fired early")
	}
	tm.Advance(60)
	if !sink.raised[0] {
		t.Fatal("timer did not fire at compare")
	}
	// Ack re-arms from reload.
	_ = tm.Write(TimerAck, 4, 1)
	if sink.raised[0] {
		t.Fatal("line still asserted after ack")
	}
	v, _ := tm.Read(TimerCompare, 4)
	if v != 210 {
		t.Fatalf("re-armed compare = %d, want 210", v)
	}
	tm.Advance(150)
	if !sink.raised[0] {
		t.Fatal("reloaded timer did not fire")
	}
}

func TestTimerDisabledDoesNotCount(t *testing.T) {
	pic := NewPIC(newFakeSink(), 0)
	tm := NewTimer(pic, 0)
	_ = tm.Write(TimerCompare, 4, 10)
	tm.Advance(100)
	v, _ := tm.Read(TimerCount, 4)
	if v != 0 {
		t.Fatalf("disabled timer counted to %d", v)
	}
}

func TestConsoleCapture(t *testing.T) {
	var sb strings.Builder
	c := NewConsole(&sb)
	for _, ch := range []byte("hi\n") {
		if err := c.Write(ConsoleTx, 4, uint32(ch)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Output() != "hi\n" || sb.String() != "hi\n" {
		t.Fatalf("output = %q mirror = %q", c.Output(), sb.String())
	}
	if v, err := c.Read(ConsoleStatus, 4); err != nil || v != 1 {
		t.Fatalf("status = %d, %v", v, err)
	}
	c.Clear()
	if c.Output() != "" {
		t.Fatal("clear failed")
	}
}

func TestCosimDevTxRx(t *testing.T) {
	pic := NewPIC(newFakeSink(), 0)
	d := NewCosimDev(pic, CosimLine)
	host, guest := net.Pipe()
	d.ConnectData(guest, guest)

	// Guest transmits a message.
	done := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := host.Read(buf)
		done <- buf[:n]
	}()
	_ = d.Write(CosimTxByte, 4, 0xAA)
	_ = d.Write(CosimTxWord, 4, 0x11223344)
	if err := d.Write(CosimTxFlush, 4, 0); err != nil {
		t.Fatal(err)
	}
	got := <-done
	want := []byte{0xAA, 0x44, 0x33, 0x22, 0x11}
	if string(got) != string(want) {
		t.Fatalf("host received % x, want % x", got, want)
	}
	if d.Sent() != 5 {
		t.Fatalf("sent = %d bytes, want 5", d.Sent())
	}

	// Host sends a response; the device takes it, and the guest pops
	// bytes.
	go func() { _, _ = host.Write([]byte{1, 2, 3, 4, 5}) }()
	if err := d.Receive(5, 0); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Read(CosimRxAvail, 4); v != 5 {
		t.Fatalf("avail = %d, want 5", v)
	}
	if v, _ := d.Read(CosimRxByte, 4); v != 1 {
		t.Fatalf("rx byte = %d", v)
	}
	if v, _ := d.Read(CosimRxWord, 4); v != 0x05040302 {
		t.Fatalf("rx word = %#x", v)
	}
	if v, _ := d.Read(CosimRxAvail, 4); v != 0 {
		t.Fatalf("avail = %d", v)
	}
	host.Close()
}

func TestCosimDevInterruptSocket(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	d := NewCosimDev(pic, CosimLine)
	host, guest := net.Pipe()
	d.ConnectIRQ(guest)

	go func() { _, _ = host.Write([]byte{7, 0, 0, 0, 9, 0, 0, 0}) }()
	if err := d.Receive(0, 8); err != nil {
		t.Fatal(err)
	}
	if v, _ := d.Read(CosimIntNum, 4); v != 7 {
		t.Fatalf("int num = %d, want 7", v)
	}
	if !sink.raised[0] {
		t.Fatal("PIC line not asserted")
	}
	_ = d.Write(CosimIntAck, 4, 0)
	if v, _ := d.Read(CosimIntNum, 4); v != 9 {
		t.Fatalf("int num = %d, want 9", v)
	}
	_ = d.Write(CosimIntAck, 4, 0)
	if v, _ := d.Read(CosimIntNum, 4); v != NoInt {
		t.Fatalf("int num = %#x, want NoInt", v)
	}
	host.Close()
}

func TestCosimDevInject(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	d := NewCosimDev(pic, CosimLine)
	d.InjectRx([]byte{9, 8})
	if v, _ := d.Read(CosimRxAvail, 4); v != 2 {
		t.Fatalf("avail = %d", v)
	}
	d.InjectIRQ(3)
	if v, _ := d.Read(CosimIntNum, 4); v != 3 {
		t.Fatalf("int = %d", v)
	}
	if pic.Pending()&(1<<CosimLine) == 0 {
		t.Fatal("PIC line not pending")
	}
}

func TestCosimFlushWithoutConnection(t *testing.T) {
	d := NewCosimDev(NewPIC(newFakeSink(), 0), CosimLine)
	_ = d.Write(CosimTxByte, 4, 1)
	if err := d.Write(CosimTxFlush, 4, 0); err == nil {
		t.Fatal("flush without connection succeeded")
	}
}

func TestMailboxPair(t *testing.T) {
	sa, sb := newFakeSink(), newFakeSink()
	picA, picB := NewPIC(sa, 0), NewPIC(sb, 0)
	a, b := NewMailboxPair(picA, MailboxLine, picB, MailboxLine)

	// A sends to B.
	if err := a.Write(MBSend, 4, 42); err != nil {
		t.Fatal(err)
	}
	if !sb.raised[0] {
		t.Fatal("B's interrupt not raised")
	}
	if v, _ := b.Read(MBAvail, 4); v != 1 {
		t.Fatalf("B avail = %d", v)
	}
	if v, _ := b.Read(MBRecv, 4); v != 42 {
		t.Fatalf("B recv = %d", v)
	}
	if sb.raised[0] {
		t.Fatal("B's interrupt still asserted after drain")
	}
	// B replies to A.
	_ = b.Write(MBSend, 4, 7)
	if v, _ := a.Read(MBRecv, 4); v != 7 {
		t.Fatal("A did not receive reply")
	}
}

func TestPlatformRunsProgramWithTimerInterrupt(t *testing.T) {
	src := `
.equ TIMER,   0xF0001000
.equ PIC,     0xF0000000
.equ VEC,     0x400
_start:
    li   t0, VEC
    mtsr ivec, t0
    ; timer: compare=200 cycles, reload, enable
    li   t1, TIMER
    addi t2, zero, 200
    sw   t2, 4(t1)       ; compare
    sw   t2, 8(t1)       ; reload
    addi t3, zero, 1
    sw   t3, 12(t1)      ; ctrl = enable
    ei
spin:
    addi s0, s0, 1
    addi t4, zero, 5
    bne  s1, t4, spin    ; run until 5 ticks
    halt
.org VEC
isr:
    ; save t1 (the ISR clobbers nothing else the main loop uses)
    addi s1, s1, 1       ; count ticks
    li   k0, TIMER
    sw   zero, 16(k0)    ; timer ack
    li   k0, PIC
    addi k1, zero, 1
    sw   k1, 8(k0)       ; pic ack line 0 (timer)
    eret
`
	im, err := asm.Assemble(asm.Options{}, asm.Source{Name: "tick.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(0, nil)
	if err := im.LoadInto(p.RAM); err != nil {
		t.Fatal(err)
	}
	p.CPU.Reset(im.Entry)
	stop, _ := p.Run(1_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x, ticks=%d)", stop, p.CPU.PC, p.CPU.Regs[5])
	}
	if got := p.CPU.Regs[5]; got != 5 {
		t.Fatalf("ticks = %d, want 5", got)
	}
	if p.CPU.Regs[4] == 0 {
		t.Fatal("main loop never ran")
	}
}

func TestPlatformWFIWakesOnTimer(t *testing.T) {
	src := `
.equ TIMER, 0xF0001000
.equ PIC,   0xF0000000
_start:
    li   t0, 0x400
    mtsr ivec, t0
    li   t1, TIMER
    addi t2, zero, 500
    sw   t2, 4(t1)       ; compare
    addi t3, zero, 1
    sw   t3, 12(t1)      ; enable
    ei
    wfi
    halt
.org 0x400
isr:
    li   k0, TIMER
    sw   zero, 16(k0)
    li   k0, PIC
    addi k1, zero, 1
    sw   k1, 8(k0)
    addi s1, zero, 1
    eret
`
	im, err := asm.Assemble(asm.Options{}, asm.Source{Name: "wfi.s", Text: src})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(0, nil)
	_ = im.LoadInto(p.RAM)
	p.CPU.Reset(im.Entry)
	stop, _ := p.Run(100_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
	if p.CPU.Regs[5] != 1 {
		t.Fatal("isr did not run")
	}
}

// waitFor polls a condition with a deadline (for goroutine-fed state).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestCosimRxInterruptEnable(t *testing.T) {
	sink := newFakeSink()
	pic := NewPIC(sink, 0)
	d := NewCosimDev(pic, CosimLine)

	// Data with RX interrupts disabled: line stays low.
	d.InjectRx([]byte{1, 2, 3})
	if sink.raised[0] {
		t.Fatal("line raised with RxIEn off")
	}
	// Arming raises the level immediately (data already present).
	if err := d.Write(CosimRxIEn, 4, 1); err != nil {
		t.Fatal(err)
	}
	if !sink.raised[0] {
		t.Fatal("line not raised after arming with data available")
	}
	if v, _ := d.Read(CosimRxIEn, 4); v != 1 {
		t.Fatalf("RxIEn reads %d", v)
	}
	// Draining the buffer drops the level.
	for i := 0; i < 3; i++ {
		_, _ = d.Read(CosimRxByte, 4)
	}
	if sink.raised[0] {
		t.Fatal("line still high with empty buffer")
	}
	// New data re-raises while armed; disarming drops it.
	d.InjectRx([]byte{9})
	if !sink.raised[0] {
		t.Fatal("line not re-raised")
	}
	if err := d.Write(CosimRxIEn, 4, 0); err != nil {
		t.Fatal(err)
	}
	if sink.raised[0] {
		t.Fatal("line high after disarm")
	}
	// Queued interrupt ids keep the line high independently of RxIEn.
	d.InjectIRQ(3)
	if !sink.raised[0] {
		t.Fatal("queued interrupt did not raise the line")
	}
	_ = d.Write(CosimIntAck, 4, 0)
	if sink.raised[0] {
		t.Fatal("line high after ack with empty queue")
	}
}

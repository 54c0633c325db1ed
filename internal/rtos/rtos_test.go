package rtos

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"cosim/internal/asm"
	"cosim/internal/dev"
	"cosim/internal/iss"
)

// buildPlatform assembles the kernel + app and loads it on a platform.
func buildPlatform(t *testing.T, appSrc string) (*dev.Platform, *asm.Image) {
	t.Helper()
	im, err := Build(asm.Source{Name: "app.s", Text: appSrc})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	p := dev.NewPlatform(0, nil)
	if err := im.LoadInto(p.RAM); err != nil {
		t.Fatal(err)
	}
	p.CPU.Reset(im.Entry)
	return p, im
}

// pokeWord writes a word into guest RAM at a symbol.
func pokeWord(t *testing.T, p *dev.Platform, im *asm.Image, sym string, v uint32) {
	t.Helper()
	addr, ok := im.Symbol(sym)
	if !ok {
		t.Fatalf("symbol %q not found", sym)
	}
	if err := p.RAM.Write(addr, 4, v); err != nil {
		t.Fatal(err)
	}
}

// peekWord reads a word from guest RAM at a symbol.
func peekWord(t *testing.T, p *dev.Platform, im *asm.Image, sym string) uint32 {
	t.Helper()
	addr, ok := im.Symbol(sym)
	if !ok {
		t.Fatalf("symbol %q not found", sym)
	}
	v, err := p.RAM.Read(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBootAndConsole(t *testing.T) {
	p, _ := buildPlatform(t, `
main:
    la   a0, msg
    call k_puts
    halt
.data
msg: .asciz "hello from uKOS\n"
`)
	stop, _ := p.Run(1_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
	if got := p.Console.Output(); got != "hello from uKOS\n" {
		t.Fatalf("console = %q", got)
	}
}

func TestSyscallTicksAndTid(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    call k_ticks_now
    la   t0, ticks0
    sw   a0, 0(t0)
    addi a0, zero, 3      ; SYS_MYTID
    ecall
    la   t0, mytid
    sw   a0, 0(t0)
    halt
.data
ticks0: .word 0xFFFFFFFF
mytid:  .word 0xFFFFFFFF
`)
	stop, _ := p.Run(1_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v", stop)
	}
	if got := peekWord(t, p, im, "ticks0"); got != 0 {
		t.Fatalf("initial ticks = %d", got)
	}
	if got := peekWord(t, p, im, "mytid"); got != 0 {
		t.Fatalf("main tid = %d", got)
	}
}

func TestPreemptiveThreads(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    la   a0, worker
    la   a1, k_stack1_top
    call k_thread_create
    la   t0, created_tid
    sw   a0, 0(t0)
mloop:
    la   t0, counter_a
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    la   t2, counter_b
    lw   t3, 0(t2)
    addi t4, zero, 3
    blt  t3, t4, mloop
    halt

worker:
wloop:
    la   t0, counter_b
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    j    wloop

.data
counter_a:   .word 0
counter_b:   .word 0
created_tid: .word 0xFFFFFFFF
`)
	// Enable a 400-cycle preemption tick before boot.
	pokeWord(t, p, im, "k_tick_period", 400)
	stop, _ := p.Run(3_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x, a=%d b=%d)", stop, p.CPU.PC,
			peekWord(t, p, im, "counter_a"), peekWord(t, p, im, "counter_b"))
	}
	if tid := peekWord(t, p, im, "created_tid"); tid != 1 {
		t.Fatalf("created tid = %d", tid)
	}
	a := peekWord(t, p, im, "counter_a")
	b := peekWord(t, p, im, "counter_b")
	if a == 0 || b < 3 {
		t.Fatalf("counters a=%d b=%d: preemption did not interleave threads", a, b)
	}
}

func TestCooperativeYield(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    la   a0, worker
    la   a1, k_stack1_top
    call k_thread_create
    call k_yield           ; hand the CPU to the worker
    la   t0, flag
    lw   t1, 0(t0)
    la   t2, result
    sw   t1, 0(t2)
    halt

worker:
    la   t0, flag
    addi t1, zero, 42
    sw   t1, 0(t0)
wspin:
    call k_yield
    j    wspin

.data
flag:   .word 0
result: .word 0
`)
	stop, _ := p.Run(1_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
	if got := peekWord(t, p, im, "result"); got != 42 {
		t.Fatalf("result = %d: yield did not run the worker", got)
	}
}

// readMessage parses one driver message from the data connection.
func readMessage(t *testing.T, c net.Conn) (msgType uint32, name string, data []byte) {
	t.Helper()
	var sizeBuf [4]byte
	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFull(c, sizeBuf[:]); err != nil {
		t.Fatalf("read size: %v", err)
	}
	size := binary.LittleEndian.Uint32(sizeBuf[:])
	body := make([]byte, size)
	if _, err := readFull(c, body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	msgType = binary.LittleEndian.Uint32(body[0:4])
	// body[4:8] is the guest cycle stamp.
	nameLen := binary.LittleEndian.Uint32(body[8:12])
	name = string(body[12 : 12+nameLen])
	rest := body[12+nameLen:]
	if msgType == 1 { // WRITE carries data
		dataLen := binary.LittleEndian.Uint32(rest[0:4])
		data = rest[4 : 4+dataLen]
	}
	return
}

func readFull(c net.Conn, buf []byte) (int, error) {
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

func TestDriverWriteAndRead(t *testing.T) {
	// The driver's dispatcher must be installed before cosim_read, as
	// every application does: the DATA_READY id may be queued before
	// the reply bytes reach RX, and with no ISR the kernel masks the
	// co-simulation line, so the RX-available level could never wake
	// the read loop's WFI.
	p, im := buildPlatform(t, `
main:
    mv   a0, zero                 ; no user handler: ids are just acked
    call cosim_register_isr
    ; WRITE 8 bytes to port "csum"
    la   a0, port_w
    addi a1, zero, 4
    la   a2, outdata
    addi a3, zero, 8
    call cosim_write
    ; READ up to 16 bytes from port "pkt"
    la   a0, port_r
    addi a1, zero, 3
    la   a2, inbuf
    addi a3, zero, 16
    call cosim_read
    la   t0, readlen
    sw   a0, 0(t0)
    halt
.data
port_w:  .asciz "csum"
port_r:  .asciz "pkt"
outdata: .byte 1,2,3,4,5,6,7,8
inbuf:   .space 16
.align 4
readlen: .word 0
`)
	hostData, guestData := net.Pipe()
	hostIRQ, guestIRQ := net.Pipe()
	p.Cosim.ConnectData(guestData, guestData)
	p.Cosim.ConnectIRQ(guestIRQ)

	// Host side: expect the WRITE, then the READ; reply with data and a
	// DATA_READY interrupt.
	hostDone := make(chan error, 1)
	go func() {
		mt, name, data := readMessage(t, hostData)
		if mt != 1 || name != "csum" || len(data) != 8 || data[0] != 1 || data[7] != 8 {
			t.Errorf("WRITE message: type=%d name=%q data=% x", mt, name, data)
		}
		mt, name, _ = readMessage(t, hostData)
		if mt != 2 || name != "pkt" {
			t.Errorf("READ message: type=%d name=%q", mt, name)
		}
		// Reply: [size][type=3][datalen][data...]
		payload := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE}
		reply := make([]byte, 12+len(payload))
		binary.LittleEndian.PutUint32(reply[0:4], uint32(8+len(payload)))
		binary.LittleEndian.PutUint32(reply[4:8], 3)
		binary.LittleEndian.PutUint32(reply[8:12], uint32(len(payload)))
		copy(reply[12:], payload)
		if _, err := hostData.Write(reply); err != nil {
			hostDone <- err
			return
		}
		var irq [4]byte
		binary.LittleEndian.PutUint32(irq[:], IntDataReady)
		_, err := hostIRQ.Write(irq[:])
		hostDone <- err
	}()

	r := NewRunner(p)
	r.Start()
	select {
	case err := <-hostDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("host protocol exchange timed out")
	}
	if got := r.Wait(); got != iss.StopHalt {
		t.Fatalf("guest stop = %v (pc=%#x)", got, p.CPU.PC)
	}
	if got := peekWord(t, p, im, "readlen"); got != 5 {
		t.Fatalf("readlen = %d, want 5", got)
	}
	buf, _ := p.RAM.ReadBytes(im.MustSymbol("inbuf"), 5)
	want := []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("inbuf = % x, want % x", buf, want)
		}
	}
}

func TestDriverUserISR(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    la   a0, my_isr
    call cosim_register_isr
spin:
    la   t0, got
    lw   t1, 0(t0)
    beqz t1, spin
    halt

my_isr:
    la   t0, got
    sw   a0, 0(t0)
    ret

.data
got: .word 0
`)
	r := NewRunner(p)
	r.Start()
	time.Sleep(2 * time.Millisecond) // let the guest install the ISR
	p.Cosim.InjectIRQ(5)
	done := make(chan iss.Stop, 1)
	go func() { done <- r.Wait() }()
	select {
	case stop := <-done:
		if stop != iss.StopHalt {
			t.Fatalf("stop = %v", stop)
		}
	case <-time.After(5 * time.Second):
		r.Stop()
		t.Fatalf("guest never halted (pc=%#x, got=%d)", p.CPU.PC, peekWord(t, p, im, "got"))
	}
	if got := peekWord(t, p, im, "got"); got != 5 {
		t.Fatalf("isr saw id %d, want 5", got)
	}
}

func TestKernelLinesNonzero(t *testing.T) {
	k, d := KernelLines()
	if k < 100 || d < 50 {
		t.Fatalf("kernel=%d driver=%d lines: embed broken?", k, d)
	}
}

func TestRunnerStop(t *testing.T) {
	p, _ := buildPlatform(t, `
main:
spin:
    j spin
`)
	r := NewRunner(p)
	r.Start()
	time.Sleep(time.Millisecond)
	r.Stop()
	if p.CPU.Instructions() == 0 {
		t.Fatal("runner never executed anything")
	}
}

func TestSleepSyscall(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    call k_ticks_now
    la   t0, t_before
    sw   a0, 0(t0)
    addi a0, zero, 5
    call k_sleep
    call k_ticks_now
    la   t0, t_after
    sw   a0, 0(t0)
    halt
.data
.align 4
t_before: .word 0
t_after:  .word 0
`)
	pokeWord(t, p, im, "k_tick_period", 300)
	stop, _ := p.Run(5_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
	before := peekWord(t, p, im, "t_before")
	after := peekWord(t, p, im, "t_after")
	if after < before+5 {
		t.Fatalf("slept from tick %d to %d, want >= +5", before, after)
	}
	if after > before+8 {
		t.Fatalf("overslept: tick %d -> %d", before, after)
	}
}

func TestTwoThreadsSleepInterleaved(t *testing.T) {
	p, im := buildPlatform(t, `
main:
    la   a0, worker
    la   a1, k_stack1_top
    call k_thread_create
    ; main sleeps longer than the worker's first step
    addi a0, zero, 6
    call k_sleep
    ; by now the worker (sleeping 2 ticks at a time) has run
    la   t0, progress
    lw   t1, 0(t0)
    la   t2, observed
    sw   t1, 0(t2)
    halt

worker:
wloop:
    la   t0, progress
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    addi a0, zero, 2
    call k_sleep
    j    wloop

.data
.align 4
progress: .word 0
observed: .word 0
`)
	pokeWord(t, p, im, "k_tick_period", 300)
	stop, _ := p.Run(10_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
	got := peekWord(t, p, im, "observed")
	if got < 2 || got > 5 {
		t.Fatalf("worker progressed %d times during main's 6-tick sleep, want 2..5", got)
	}
}

func TestSemaphoreMutualExclusion(t *testing.T) {
	p, im := buildPlatform(t, `
; Two threads increment a shared counter 100 times each inside a
; semaphore-protected critical section that deliberately opens a
; read-modify-write window (preemption would corrupt it without the
; semaphore).
main:
    la   a0, worker
    la   a1, k_stack1_top
    call k_thread_create
    call body
    la   t0, done_main
    addi t1, zero, 1
    sw   t1, 0(t0)
wait_worker:
    la   t0, done_worker
    lw   t1, 0(t0)
    beqz t1, wait_worker
    halt

worker:
    call body
    la   t0, done_worker
    addi t1, zero, 1
    sw   t1, 0(t0)
wspin:
    call k_yield
    j    wspin

body:
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   s0, 4(sp)
    addi s0, zero, 100
body_loop:
    beqz s0, body_done
    la   a0, sem
    call k_sem_wait
    ; critical section: read, dawdle, write
    la   t0, counter
    lw   t1, 0(t0)
    nop
    nop
    nop
    addi t1, t1, 1
    sw   t1, 0(t0)
    la   a0, sem
    call k_sem_post
    addi s0, s0, -1
    j    body_loop
body_done:
    lw   ra, 0(sp)
    lw   s0, 4(sp)
    addi sp, sp, 8
    ret

.data
.align 4
sem:         .word 1
counter:     .word 0
done_main:   .word 0
done_worker: .word 0
`)
	pokeWord(t, p, im, "k_tick_period", 97) // aggressive preemption
	stop, _ := p.Run(30_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x counter=%d)", stop, p.CPU.PC, peekWord(t, p, im, "counter"))
	}
	if got := peekWord(t, p, im, "counter"); got != 200 {
		t.Fatalf("counter = %d, want 200 (critical section corrupted)", got)
	}
}

func TestIdleThreadWhenAllSleep(t *testing.T) {
	// With every user thread sleeping, the kernel idles in WFI and the
	// timer wakes it back up — no deadlock, no busy spin.
	p, im := buildPlatform(t, `
main:
    addi a0, zero, 3
    call k_sleep
    addi a0, zero, 3
    call k_sleep
    halt
`)
	pokeWord(t, p, im, "k_tick_period", 400)
	stop, _ := p.Run(5_000_000)
	if stop != iss.StopHalt {
		t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
	}
}

package iss

import (
	"testing"

	"cosim/internal/asm"
	"cosim/internal/isa"
)

// buildCPU assembles src and loads it into a fresh CPU.
func buildCPU(t testing.TB, src string) (*CPU, *asm.Image) {
	t.Helper()
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "t.s", Text: src})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ram := NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		t.Fatalf("load: %v", err)
	}
	c := New(NewSystemBus(ram))
	c.Reset(im.Entry)
	return c, im
}

// runToHalt runs the CPU and requires a clean HALT.
func runToHalt(t *testing.T, c *CPU, budget uint64) {
	t.Helper()
	stop, _ := c.Run(budget)
	if stop != StopHalt {
		t.Fatalf("stop = %v (pc=%#x), want halt", stop, c.PC)
	}
}

func TestArithmetic(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 21
    addi a1, zero, 2
    mul  a2, a0, a1     ; 42
    addi a3, zero, 100
    div  a4, a3, a1     ; 50
    rem  a5, a3, a2     ; 100 % 42 = 16
    sub  s0, a3, a0     ; 79
    halt
`)
	runToHalt(t, c, 100)
	if got := c.Regs[12]; got != 42 {
		t.Errorf("a2 = %d, want 42", got)
	}
	if got := c.Regs[14]; got != 50 {
		t.Errorf("a4 = %d, want 50", got)
	}
	if got := c.Regs[15]; got != 16 {
		t.Errorf("a5 = %d, want 16", got)
	}
	if got := c.Regs[4]; got != 79 {
		t.Errorf("s0 = %d, want 79", got)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi zero, zero, 99
    add  a0, zero, zero
    halt
`)
	runToHalt(t, c, 10)
	if c.Regs[0] != 0 || c.Regs[10] != 0 {
		t.Fatalf("zero = %d, a0 = %d", c.Regs[0], c.Regs[10])
	}
}

func TestFibonacciLoop(t *testing.T) {
	c, _ := buildCPU(t, `
; compute fib(12) iteratively into a0
_start:
    addi t0, zero, 12   ; n
    addi a0, zero, 0    ; fib(0)
    addi t1, zero, 1    ; fib(1)
loop:
    beqz t0, done
    add  t2, a0, t1
    mv   a0, t1
    mv   t1, t2
    addi t0, t0, -1
    j    loop
done:
    halt
`)
	runToHalt(t, c, 1000)
	if got := c.Regs[10]; got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
}

func TestLoadStoreAllWidths(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    la   gp, buf
    li   a0, 0x12345678
    sw   a0, 0(gp)
    lw   a1, 0(gp)
    lh   a2, 0(gp)      ; 0x5678 sign-extended
    lhu  a3, 2(gp)      ; 0x1234
    lb   a4, 1(gp)      ; 0x56
    lbu  a5, 3(gp)      ; 0x12
    li   t0, 0xFFFF8001
    sh   t0, 4(gp)
    lh   s0, 4(gp)      ; sign-extended 0x8001 = -32767
    lhu  s1, 4(gp)      ; 0x8001
    sb   t0, 6(gp)
    lb   s2, 6(gp)      ; 0x01
    halt
.data
buf: .space 16
`)
	_ = im
	runToHalt(t, c, 100)
	if c.Regs[11] != 0x12345678 {
		t.Errorf("lw = %#x", c.Regs[11])
	}
	if c.Regs[12] != 0x5678 {
		t.Errorf("lh = %#x", c.Regs[12])
	}
	if c.Regs[13] != 0x1234 {
		t.Errorf("lhu = %#x", c.Regs[13])
	}
	if c.Regs[14] != 0x56 {
		t.Errorf("lb = %#x", c.Regs[14])
	}
	if c.Regs[15] != 0x12 {
		t.Errorf("lbu = %#x", c.Regs[15])
	}
	if int32(c.Regs[4]) != -32767 {
		t.Errorf("lh signed = %d", int32(c.Regs[4]))
	}
	if c.Regs[5] != 0x8001 {
		t.Errorf("lhu = %#x", c.Regs[5])
	}
	if c.Regs[6] != 1 {
		t.Errorf("lb low byte = %d", c.Regs[6])
	}
}

func TestFunctionCall(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   sp, 0x8000
    addi a0, zero, 10
    call square
    mv   s0, a0
    addi a0, zero, 7
    call square
    add  a0, a0, s0     ; 100 + 49
    halt
square:
    mul  a0, a0, a0
    ret
`)
	runToHalt(t, c, 1000)
	if got := c.Regs[10]; got != 149 {
		t.Fatalf("result = %d, want 149", got)
	}
}

func TestShifts(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   a0, 0x80000000
    srai a1, a0, 4       ; arithmetic: 0xF8000000
    srli a2, a0, 4       ; logical:    0x08000000
    addi a3, zero, 1
    slli a3, a3, 31      ; 0x80000000
    addi t0, zero, 8
    srl  a4, a0, t0
    sra  a5, a0, t0
    halt
`)
	runToHalt(t, c, 100)
	if c.Regs[11] != 0xf8000000 {
		t.Errorf("srai = %#x", c.Regs[11])
	}
	if c.Regs[12] != 0x08000000 {
		t.Errorf("srli = %#x", c.Regs[12])
	}
	if c.Regs[13] != 0x80000000 {
		t.Errorf("slli = %#x", c.Regs[13])
	}
	if c.Regs[14] != 0x00800000 {
		t.Errorf("srl = %#x", c.Regs[14])
	}
	if c.Regs[15] != 0xff800000 {
		t.Errorf("sra = %#x", c.Regs[15])
	}
}

func TestComparisons(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   a0, -5
    addi a1, zero, 3
    slt  t0, a0, a1      ; -5 < 3 signed -> 1
    sltu t1, a0, a1      ; huge unsigned < 3 -> 0
    slti t2, a1, 10      ; 1
    sltiu t3, a1, 2      ; 0
    halt
`)
	runToHalt(t, c, 100)
	if c.Regs[16] != 1 || c.Regs[17] != 0 || c.Regs[18] != 1 || c.Regs[19] != 0 {
		t.Fatalf("slt results = %d %d %d %d", c.Regs[16], c.Regs[17], c.Regs[18], c.Regs[19])
	}
}

func TestDivByZeroConvention(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 7
    div  a1, a0, zero    ; -1
    divu a2, a0, zero    ; 0xFFFFFFFF
    rem  a3, a0, zero    ; 7
    remu a4, a0, zero    ; 7
    halt
`)
	runToHalt(t, c, 100)
	if c.Regs[11] != 0xffffffff || c.Regs[12] != 0xffffffff {
		t.Errorf("div by zero = %#x %#x", c.Regs[11], c.Regs[12])
	}
	if c.Regs[13] != 7 || c.Regs[14] != 7 {
		t.Errorf("rem by zero = %d %d", c.Regs[13], c.Regs[14])
	}
}

func TestHostSyscall(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 33
    ecall
    addi a1, zero, 1     ; must run after the ecall returns
    halt
`)
	var got uint32
	c.Syscall = func(cpu *CPU) bool {
		got = cpu.Regs[10]
		cpu.Regs[10] = 77
		return true
	}
	runToHalt(t, c, 100)
	if got != 33 {
		t.Fatalf("syscall saw a0 = %d", got)
	}
	if c.Regs[10] != 77 || c.Regs[11] != 1 {
		t.Fatalf("after syscall a0=%d a1=%d", c.Regs[10], c.Regs[11])
	}
}

// TestHostSyscallSetsPC: a SyscallHandler sees the PC after the ECALL,
// and the ECALL retires to the PC the handler leaves; a profile charges
// the ECALL at its own address.
func TestHostSyscallSetsPC(t *testing.T) {
	c, im := buildCPU(t, `
_start:
call:
    ecall
after:
    addi a1, zero, 1     ; skipped: the handler moves the PC past it
target:
    addi a2, zero, 2
    halt
`)
	prof := NewProfile()
	c.AttachProfile(prof)
	var seen uint32
	c.Syscall = func(cpu *CPU) bool {
		seen = cpu.PC
		cpu.PC = im.MustSymbol("target")
		return true
	}
	runToHalt(t, c, 100)
	if want := im.MustSymbol("after"); seen != want {
		t.Fatalf("handler saw PC %#x, want %#x (after the ecall)", seen, want)
	}
	if c.Regs[11] != 0 || c.Regs[12] != 2 {
		t.Fatalf("a1=%d a2=%d: want the handler's PC to skip the addi at after", c.Regs[11], c.Regs[12])
	}
	if n := prof.Count(im.MustSymbol("call")); n != 1 {
		t.Fatalf("profile charged the ecall %d times at its address, want 1", n)
	}
}

func TestEcallWithoutHandlerStops(t *testing.T) {
	c, _ := buildCPU(t, "_start:\n    ecall\n    halt\n")
	stop, _ := c.Run(10)
	if stop != StopEcall {
		t.Fatalf("stop = %v, want ecall", stop)
	}
}

func TestTrapVectorEcall(t *testing.T) {
	c, _ := buildCPU(t, `
.equ TRAP_VEC, 0x200
_start:
    li   t0, TRAP_VEC
    mtsr ivec, t0
    addi a0, zero, 5
    ecall                ; vectors to handler
    addi a0, a0, 100     ; resumes here: a0 = 5*2+100
    halt
.org TRAP_VEC
handler:
    mfsr t1, cause
    add  a0, a0, a0      ; double a0
    eret
`)
	runToHalt(t, c, 1000)
	if got := c.Regs[10]; got != 110 {
		t.Fatalf("a0 = %d, want 110", got)
	}
	if got := c.Regs[17]; got != isa.CauseECall {
		t.Fatalf("cause = %d, want %d", got, isa.CauseECall)
	}
}

func TestIllegalInstructionFault(t *testing.T) {
	ram := NewRAM(1 << 16)
	_ = ram.Write(0, 4, uint32(0x3f)<<26) // undefined opcode
	c := New(NewSystemBus(ram))
	c.Reset(0)
	stop, _ := c.Run(10)
	if stop != StopError {
		t.Fatalf("stop = %v, want error", stop)
	}
}

func TestIllegalVectorsWhenHandlerInstalled(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x100
    mtsr ivec, t0
    .word 0xFC000000     ; illegal opcode
    halt
.org 0x100
handler:
    mfsr a0, cause
    halt
`)
	runToHalt(t, c, 100)
	if got := c.Regs[10]; got != isa.CauseIllegal {
		t.Fatalf("cause = %d, want illegal", got)
	}
}

func TestInterruptDelivery(t *testing.T) {
	c, _ := buildCPU(t, `
.equ VEC, 0x300
_start:
    li   t0, VEC
    mtsr ivec, t0
    ei
spin:
    addi s0, s0, 1
    j    spin
.org VEC
isr:
    mfsr a0, cause
    addi s1, zero, 1     ; flag: isr ran
    halt
`)
	// Run a while without the IRQ: must keep spinning.
	stop, _ := c.Run(500)
	if stop != StopBudget {
		t.Fatalf("pre-irq stop = %v", stop)
	}
	if c.Regs[5] != 0 {
		t.Fatal("isr ran before IRQ was raised")
	}
	c.RaiseIRQ(3)
	runToHalt(t, c, 1000)
	if c.Regs[5] != 1 {
		t.Fatal("isr did not run")
	}
	if got := c.Regs[10]; got != isa.CauseIRQBase+3 {
		t.Fatalf("cause = %d, want %d", got, isa.CauseIRQBase+3)
	}
}

// TestIRQBeforeStepOverStopsAtHandlerBreakpoint: an interrupt taken
// while resuming from a breakpoint enters its handler before the
// breakpointed instruction runs, so the step-over is dropped and a
// breakpoint on the handler's first instruction stops the CPU there.
func TestIRQBeforeStepOverStopsAtHandlerBreakpoint(t *testing.T) {
	c, im := buildCPU(t, `
.equ VEC, 0x300
_start:
    li   t0, VEC
    mtsr ivec, t0
    ei
spot:
    addi s0, s0, 1
    j    spot
.org VEC
handler:
    addi s1, s1, 1
    halt
`)
	spot, handler := im.MustSymbol("spot"), im.MustSymbol("handler")
	c.AddBreakpoint(spot)
	c.AddBreakpoint(handler)
	if stop, _ := c.Run(100); stop != StopBreak || c.PC != spot {
		t.Fatalf("first stop = %v at %#x, want breakpoint at spot %#x", stop, c.PC, spot)
	}
	c.RaiseIRQ(0)
	stop, _ := c.Run(100)
	if stop != StopBreak || c.PC != handler {
		t.Fatalf("resume stop = %v at %#x, want breakpoint at handler %#x", stop, c.PC, handler)
	}
	if c.Regs[9] != 0 {
		t.Fatalf("s1 = %d: the handler's first addi ran before its breakpoint stop", c.Regs[9])
	}
	if c.Regs[8] != 0 {
		t.Fatalf("s0 = %d: spot's addi ran before the interrupt", c.Regs[8])
	}
}

// TestStepOverBelongsToItsPC: the step-over that a breakpoint stop
// arms is for the instruction at that stop. A debugger that moves the
// PC to another breakpoint before resuming stops there at once.
func TestStepOverBelongsToItsPC(t *testing.T) {
	c, im := buildCPU(t, `
_start:
a:
    addi s0, s0, 1
b:
    addi s1, s1, 1
    halt
`)
	a, b := im.MustSymbol("a"), im.MustSymbol("b")
	c.AddBreakpoint(a)
	c.AddBreakpoint(b)
	if stop, _ := c.Run(100); stop != StopBreak || c.PC != a {
		t.Fatalf("first stop = %v at %#x, want breakpoint at a %#x", stop, c.PC, a)
	}
	c.PC = b
	if stop, n := c.Run(100); stop != StopBreak || c.PC != b || n != 0 {
		t.Fatalf("resume at b = %v at %#x after %d instructions, want breakpoint at b %#x after 0", stop, c.PC, n, b)
	}
	if stop, _ := c.Run(100); stop != StopHalt || c.Regs[4] != 0 || c.Regs[5] != 1 {
		t.Fatalf("second resume = %v, s0 = %d, s1 = %d; want halt, 0, 1", stop, c.Regs[4], c.Regs[5])
	}
}

func TestInterruptMaskedByIE(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x300
    mtsr ivec, t0
    ; interrupts NOT enabled
spin:
    addi s0, s0, 1
    j    spin
.org 0x300
isr:
    halt
`)
	c.RaiseIRQ(0)
	stop, _ := c.Run(200)
	if stop != StopBudget {
		t.Fatalf("stop = %v; interrupt taken while IE=0?", stop)
	}
}

func TestEretRestoresInterruptEnable(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x300
    mtsr ivec, t0
    ei
spin:
    addi s0, s0, 1
    j    spin
.org 0x300
isr:
    addi s1, s1, 1
    eret
`)
	c.RaiseIRQ(0)
	_, _ = c.Run(50)
	if c.Regs[5] == 0 {
		t.Fatal("first interrupt not taken")
	}
	// Level is still asserted (we never cleared): with ERET restoring
	// IE, the ISR keeps being re-entered.
	first := c.Regs[5]
	_, _ = c.Run(200)
	if c.Regs[5] <= first {
		t.Fatal("interrupt enable not restored by eret")
	}
	c.ClearIRQ(0)
	before := c.Regs[4]
	_, _ = c.Run(200)
	if c.Regs[4] <= before {
		t.Fatal("spin loop did not resume after ClearIRQ")
	}
}

func TestWFI(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x300
    mtsr ivec, t0
    ei
    wfi
    addi s0, zero, 42    ; after wakeup+isr
    halt
.org 0x300
isr:
    addi s1, zero, 1
    eret
`)
	stop, _ := c.Run(100)
	if stop != StopIdle {
		t.Fatalf("stop = %v, want idle", stop)
	}
	if !c.Sleeping() {
		t.Fatal("not sleeping after WFI")
	}
	c.RaiseIRQ(1)
	// Level-triggered: the line stays asserted until cleared, so the ISR
	// re-enters; clear it (as a PIC acknowledge would) and run to halt.
	_, _ = c.Run(50)
	if c.Regs[5] != 1 {
		t.Fatal("isr did not run after wakeup")
	}
	c.ClearIRQ(1)
	runToHalt(t, c, 1000)
	if c.Regs[4] != 42 {
		t.Fatalf("s0=%d", c.Regs[4])
	}
}

func TestHardwareBreakpoint(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    addi a0, zero, 1
bp_here:
    addi a0, a0, 10
    addi a0, a0, 100
    halt
`)
	addr := im.MustSymbol("bp_here")
	c.AddBreakpoint(addr)
	stop, _ := c.Run(100)
	if stop != StopBreak {
		t.Fatalf("stop = %v, want breakpoint", stop)
	}
	if c.PC != addr {
		t.Fatalf("stopped at %#x, want %#x", c.PC, addr)
	}
	if c.Regs[10] != 1 {
		t.Fatalf("a0 = %d at breakpoint, want 1", c.Regs[10])
	}
	// Resume: must execute the breakpointed instruction and continue.
	runToHalt(t, c, 100)
	if c.Regs[10] != 111 {
		t.Fatalf("a0 = %d after resume, want 111", c.Regs[10])
	}
}

func TestBreakpointHitTwiceInLoop(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    addi t0, zero, 3
loop:
    addi s0, s0, 1
    addi t0, t0, -1
    bnez t0, loop
    halt
`)
	addr := im.MustSymbol("loop")
	c.AddBreakpoint(addr)
	hits := 0
	for {
		stop, _ := c.Run(1000)
		if stop == StopBreak {
			hits++
			continue
		}
		if stop == StopHalt {
			break
		}
		t.Fatalf("unexpected stop %v", stop)
	}
	if hits != 3 {
		t.Fatalf("breakpoint hit %d times, want 3", hits)
	}
	if c.Regs[4] != 3 {
		t.Fatalf("s0 = %d", c.Regs[4])
	}
}

func TestRemoveBreakpoint(t *testing.T) {
	c, im := buildCPU(t, "_start:\nbp:\n    nop\n    halt\n")
	addr := im.MustSymbol("bp")
	c.AddBreakpoint(addr)
	if !c.HasBreakpoint(addr) {
		t.Fatal("breakpoint not armed")
	}
	c.RemoveBreakpoint(addr)
	runToHalt(t, c, 10)
}

func TestEBreakStops(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    nop
brk:
    ebreak
    halt
`)
	stop, _ := c.Run(100)
	if stop != StopEBreak {
		t.Fatalf("stop = %v, want ebreak", stop)
	}
	if c.PC != im.MustSymbol("brk") {
		t.Fatalf("PC = %#x, want ebreak address", c.PC)
	}
}

func TestWatchpoint(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    la   gp, target
    addi a0, zero, 7
    sw   a0, 0(gp)
    addi a1, zero, 1
    halt
.data
target: .word 0
`)
	wa := im.MustSymbol("target")
	c.AddWatchpoint(wa, 4)
	stop, _ := c.Run(100)
	if stop != StopWatch {
		t.Fatalf("stop = %v, want watchpoint", stop)
	}
	if c.WatchHit() != wa {
		t.Fatalf("watch hit = %#x, want %#x", c.WatchHit(), wa)
	}
	// The store has executed; a1 has not been set yet.
	if c.Regs[11] != 0 {
		t.Fatal("watchpoint fired late")
	}
	v, _ := c.Bus().Read(wa, 4)
	if v != 7 {
		t.Fatalf("target = %d", v)
	}
	c.RemoveWatchpoint(wa)
	runToHalt(t, c, 100)
}

func TestCycleCounting(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 1    ; 1 cycle
    lw   a1, 0(zero)    ; 2 cycles
    sw   a1, 4(zero)    ; 2 cycles
    mul  a2, a0, a0     ; 3 cycles
    div  a3, a0, a0     ; 16 cycles
    halt
`)
	runToHalt(t, c, 100)
	if got := c.Cycles(); got != 24 {
		t.Fatalf("cycles = %d, want 24", got)
	}
	if got := c.Instructions(); got != 6 {
		t.Fatalf("instructions = %d, want 6 (incl. halt)", got)
	}
}

func TestMfsrCycleCounter(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 1
    addi a0, zero, 2
    mfsr a1, cycle
    halt
`)
	runToHalt(t, c, 100)
	if got := c.Regs[11]; got != 2 {
		t.Fatalf("cycle SR read = %d, want 2", got)
	}
}

func TestRAMBounds(t *testing.T) {
	r := NewRAM(0x1000)
	if err := r.Write(0xfff, 1, 1); err != nil {
		t.Fatalf("in-bounds write failed: %v", err)
	}
	if err := r.Write(0x1000, 1, 1); err == nil {
		t.Fatal("out-of-bounds write succeeded")
	}
	if err := r.Write(0xffe, 4, 1); err == nil {
		t.Fatal("straddling write succeeded")
	}
	if _, err := r.Read(0x2000, 4); err == nil {
		t.Fatal("out-of-bounds read succeeded")
	}
	if _, err := r.Read(0, 3); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestRAMSparse(t *testing.T) {
	r := NewRAM(0) // unbounded
	if err := r.Write(0xfffffff0, 4, 0xcafe); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(0xfffffff0, 4)
	if err != nil || v != 0xcafe {
		t.Fatalf("read = %#x, %v", v, err)
	}
	// Untouched memory reads zero without allocation.
	v, err = r.Read(0x12345678, 4)
	if err != nil || v != 0 {
		t.Fatalf("untouched = %#x, %v", v, err)
	}
	if len(r.pages) != 1 {
		t.Fatalf("pages allocated = %d, want 1", len(r.pages))
	}
}

func TestRAMCrossPageAccess(t *testing.T) {
	r := NewRAM(0)
	addr := uint32(pageSize - 2)
	if err := r.Write(addr, 4, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := r.Read(addr, 4)
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("cross-page read = %#x, %v", v, err)
	}
}

// echoDev is a trivial MMIO device for bus tests.
type echoDev struct{ last uint32 }

func (d *echoDev) Name() string { return "echo" }
func (d *echoDev) Size() uint32 { return 16 }
func (d *echoDev) Read(off uint32, size int) (uint32, error) {
	return d.last + off, nil
}
func (d *echoDev) Write(off uint32, size int, v uint32) error {
	d.last = v
	return nil
}

func TestSystemBusDeviceRouting(t *testing.T) {
	ram := NewRAM(0x10000)
	bus := NewSystemBus(ram)
	dev := &echoDev{}
	if err := bus.Map(0xf0000000, dev); err != nil {
		t.Fatal(err)
	}
	if err := bus.Write(0xf0000000, 4, 55); err != nil {
		t.Fatal(err)
	}
	v, err := bus.Read(0xf0000004, 4)
	if err != nil || v != 59 {
		t.Fatalf("device read = %d, %v", v, err)
	}
	// RAM still routed normally.
	if err := bus.Write(0x100, 4, 7); err != nil {
		t.Fatal(err)
	}
	if v, _ := bus.Read(0x100, 4); v != 7 {
		t.Fatalf("ram read = %d", v)
	}
	// Overlap rejected.
	if err := bus.Map(0xf0000008, &echoDev{}); err == nil {
		t.Fatal("overlapping map accepted")
	}
}

func TestMMIOFromProgram(t *testing.T) {
	im, err := asm.Assemble(asm.Options{}, asm.Source{Name: "m.s", Text: `
.equ DEV, 0xF0000000
_start:
    li   t0, DEV
    addi a0, zero, 123
    sw   a0, 0(t0)
    lw   a1, 4(t0)      ; 123+4
    halt
`})
	if err != nil {
		t.Fatal(err)
	}
	ram := NewRAM(1 << 16)
	_ = im.LoadInto(ram)
	bus := NewSystemBus(ram)
	dev := &echoDev{}
	_ = bus.Map(0xf0000000, dev)
	c := New(bus)
	c.Reset(im.Entry)
	runToHalt(t, c, 100)
	if dev.last != 123 {
		t.Fatalf("device saw %d", dev.last)
	}
	if c.Regs[11] != 127 {
		t.Fatalf("a1 = %d", c.Regs[11])
	}
}

func TestResetClearsState(t *testing.T) {
	c, _ := buildCPU(t, "_start:\n    addi a0, zero, 9\n    halt\n")
	runToHalt(t, c, 10)
	c.Reset(0)
	if c.Regs[10] != 0 || c.Cycles() != 0 || c.Halted() {
		t.Fatal("reset incomplete")
	}
	runToHalt(t, c, 10)
}

func TestRunBudget(t *testing.T) {
	c, _ := buildCPU(t, "_start:\nspin:\n    j spin\n")
	stop, n := c.Run(50)
	if stop != StopBudget {
		t.Fatalf("stop = %v", stop)
	}
	if n != 50 {
		t.Fatalf("executed = %d, want 50", n)
	}
}

func TestStopStrings(t *testing.T) {
	for s := StopBudget; s <= StopError; s++ {
		if s.String() == "" {
			t.Errorf("Stop(%d) has empty string", s)
		}
	}
}

func TestMisalignedPCFaults(t *testing.T) {
	c, _ := buildCPU(t, "_start:\n    nop\n")
	c.PC = 2
	stop := c.Step()
	if stop != StopError {
		t.Fatalf("stop = %v, want error (no vector)", stop)
	}
}

func TestMisalignedLoadFaults(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi t0, zero, 2
    lw   a0, 0(t0)
    halt
`)
	stop, _ := c.Run(10)
	if stop != StopError {
		t.Fatalf("stop = %v, want error", stop)
	}
}

package iss

import (
	"math/rand"
	"strings"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/isa"
)

func TestAllBranchConditions(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, -1          ; 0xFFFFFFFF
    addi t1, zero, 1
    ; signed: -1 < 1, unsigned: 0xFFFFFFFF > 1
    blt  t0, t1, s1
    j    fail
s1: bge  t1, t0, s2
    j    fail
s2: bltu t1, t0, s3
    j    fail
s3: bgeu t0, t1, s4
    j    fail
s4: beq  t0, t0, s5
    j    fail
s5: bne  t0, t1, ok
fail:
    addi a0, zero, 0
    halt
ok:
    addi a0, zero, 1
    halt
`)
	runToHalt(t, c, 100)
	if c.Regs[10] != 1 {
		t.Fatal("branch condition matrix failed")
	}
}

func TestJALLinksCorrectly(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    jal  ra, target
after:
    halt
target:
    mv   a0, ra
    halt
`)
	runToHalt(t, c, 10)
	if c.Regs[10] != im.MustSymbol("after") {
		t.Fatalf("a0 (a copy of ra) = %#x, want %#x", c.Regs[10], im.MustSymbol("after"))
	}
}

func TestJALRClearsLowBits(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    la   t0, target
    addi t0, t0, 2       ; misalign the target on purpose
    jalr ra, t0, 0       ; hardware clears the low bits
target:
    addi a0, zero, 7
    halt
`)
	_ = im
	runToHalt(t, c, 20)
	if c.Regs[10] != 7 {
		t.Fatalf("a0 = %d", c.Regs[10])
	}
}

func TestMULHSigned(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   a0, -2
    li   a1, 3
    mulh a2, a0, a1      ; high word of -6 = 0xFFFFFFFF
    li   a3, 0x40000000
    mulh a4, a3, a3      ; (2^30)^2 >> 32 = 2^28
    halt
`)
	runToHalt(t, c, 100)
	if c.Regs[12] != 0xffffffff {
		t.Errorf("mulh(-2,3) high = %#x", c.Regs[12])
	}
	if c.Regs[14] != 1<<28 {
		t.Errorf("mulh(2^30,2^30) = %#x, want %#x", c.Regs[14], uint32(1)<<28)
	}
}

func TestMemcpyProgram(t *testing.T) {
	c, im := buildCPU(t, `
; memcpy(dst, src, n) byte-wise, then verify by checksumming
_start:
    la   a0, dst
    la   a1, src
    addi a2, zero, 13
copy:
    beqz a2, done
    lbu  t0, 0(a1)
    sb   t0, 0(a0)
    addi a0, a0, 1
    addi a1, a1, 1
    addi a2, a2, -1
    j    copy
done:
    halt
.data
src: .asciz "hello, world"
.align 4
dst: .space 16
`)
	runToHalt(t, c, 1000)
	got := make([]byte, 13)
	if err := c.Bus().(*SystemBus).RAM().ReadBytes(im.MustSymbol("dst"), got); err != nil {
		t.Fatal(err)
	}
	if string(got[:12]) != "hello, world" || got[12] != 0 {
		t.Fatalf("dst = %q", got)
	}
}

func TestRecursiveFactorial(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   sp, 0x8000
    addi a0, zero, 6
    call fact
    halt

; fact(n): n <= 1 ? 1 : n * fact(n-1)
fact:
    addi t0, zero, 1
    bgt  a0, t0, recurse
    addi a0, zero, 1
    ret
recurse:
    addi sp, sp, -8
    sw   ra, 0(sp)
    sw   a0, 4(sp)
    addi a0, a0, -1
    call fact
    lw   t1, 4(sp)
    mul  a0, a0, t1
    lw   ra, 0(sp)
    addi sp, sp, 8
    ret
`)
	runToHalt(t, c, 10_000)
	if c.Regs[10] != 720 {
		t.Fatalf("6! = %d", c.Regs[10])
	}
}

func TestIRQPriorityLowestLineFirst(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x300
    mtsr ivec, t0
    ei
    wfi
    halt
.org 0x300
isr:
    mfsr a0, cause
    halt
`)
	c.RaiseIRQ(5)
	c.RaiseIRQ(2)
	c.RaiseIRQ(7)
	runToHalt(t, c, 1000)
	if got := c.Regs[10]; got != isa.CauseIRQBase+2 {
		t.Fatalf("cause = %d, want line 2 first", got)
	}
}

func TestSetIRQMask(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    li   t0, 0x300
    mtsr ivec, t0
    ei
    wfi
    halt
.org 0x300
isr:
    mfsr a0, cause
    halt
`)
	c.SetIRQMask(1 << 4) // only line 4 enabled
	c.RaiseIRQ(2)        // masked: does not wake
	stop, _ := c.Run(100)
	if stop != StopIdle {
		t.Fatalf("stop = %v, masked IRQ woke the CPU", stop)
	}
	c.RaiseIRQ(4)
	runToHalt(t, c, 1000)
	if got := c.Regs[10]; got != isa.CauseIRQBase+4 {
		t.Fatalf("cause = %d", got)
	}
}

// TestDeterministicExecution runs random straight-line ALU programs
// twice and checks identical final state — guarding against hidden
// host-dependent behaviour in the interpreter.
func TestDeterministicExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	ops := []isa.Opcode{isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.SLL,
		isa.SRL, isa.SRA, isa.SLT, isa.SLTU, isa.MUL, isa.MULH, isa.DIV, isa.REM}
	for trial := 0; trial < 20; trial++ {
		var words []uint32
		// Seed registers with immediates, then random ALU soup.
		for r := uint8(1); r < 16; r++ {
			words = append(words, isa.EncodeMust(isa.Inst{
				Op: isa.ADDI, Rd: r, Imm: int32(rng.Intn(0x10000)) - 0x8000}))
		}
		for i := 0; i < 200; i++ {
			op := ops[rng.Intn(len(ops))]
			words = append(words, isa.EncodeMust(isa.Inst{
				Op:  op,
				Rd:  uint8(1 + rng.Intn(15)),
				Rs1: uint8(rng.Intn(16)),
				Rs2: uint8(rng.Intn(16)),
			}))
		}
		words = append(words, isa.EncodeMust(isa.Inst{Op: isa.HALT}))

		run := func() ([32]uint32, uint64) {
			ram := NewRAM(1 << 16)
			for i, w := range words {
				_ = ram.Write(uint32(4*i), 4, w)
			}
			c := New(NewSystemBus(ram))
			c.Reset(0)
			stop, _ := c.Run(10_000)
			if stop != StopHalt {
				t.Fatalf("trial %d: stop %v", trial, stop)
			}
			return c.Regs, c.Cycles()
		}
		r1, cy1 := run()
		r2, cy2 := run()
		if r1 != r2 || cy1 != cy2 {
			t.Fatalf("trial %d: nondeterministic execution", trial)
		}
	}
}

// TestAssembleExecuteGoldenALU cross-checks the interpreter against Go
// arithmetic for random operand pairs flowing through assembly.
func TestAssembleExecuteGoldenALU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		a, b := rng.Uint32(), rng.Uint32()
		src := `
_start:
    la  t0, opa
    lw  a0, 0(t0)
    la  t0, opb
    lw  a1, 0(t0)
    add  s0, a0, a1
    sub  s1, a0, a1
    xor  s2, a0, a1
    and  s3, a0, a1
    or   s4, a0, a1
    mul  s5, a0, a1
    halt
.data
.align 4
opa: .word 0
opb: .word 0
`
		im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "g.s", Text: src})
		if err != nil {
			t.Fatal(err)
		}
		ram := NewRAM(1 << 20)
		_ = im.LoadInto(ram)
		_ = ram.Write(im.MustSymbol("opa"), 4, a)
		_ = ram.Write(im.MustSymbol("opb"), 4, b)
		c := New(NewSystemBus(ram))
		c.Reset(im.Entry)
		runToHalt(t, c, 1000)
		want := []uint32{a + b, a - b, a ^ b, a & b, a | b, a * b}
		for i, w := range want {
			if c.Regs[4+i] != w {
				t.Fatalf("trial %d op %d: got %#x want %#x (a=%#x b=%#x)", trial, i, c.Regs[4+i], w, a, b)
			}
		}
	}
}

func TestProfiler(t *testing.T) {
	c, im := buildCPU(t, `
_start:
    addi t0, zero, 50
loop:
    addi t0, t0, -1
    bnez t0, loop
    halt
`)
	prof := NewProfile()
	c.AttachProfile(prof)
	runToHalt(t, c, 10_000)
	loopAddr := im.MustSymbol("loop")
	if got := prof.Count(loopAddr); got != 50 {
		t.Fatalf("loop body count = %d, want 50", got)
	}
	top := prof.Top(2)
	if len(top) != 2 {
		t.Fatalf("top = %v", top)
	}
	// The two loop instructions dominate.
	for _, h := range top {
		if h.Count != 50 {
			t.Fatalf("hot spot %+v, want count 50", h)
		}
	}
	var sb strings.Builder
	prof.Report(&sb, 5, func(pc uint32) string {
		f, l, _ := im.LineOfAddr(pc)
		return f + ":" + itostr(l)
	})
	if !strings.Contains(sb.String(), "t.s:") {
		t.Fatalf("report lacks annotation:\n%s", sb.String())
	}
	if prof.Sites() != 4 {
		t.Fatalf("sites = %d, want 4 (addi, loop addi, bnez, halt)", prof.Sites())
	}
}

// TestProfileCyclesMatchCPU: a profile charges each instruction the
// cycles the CPU counts for it, HALT's none included, so its cycle
// total is CPU.Cycles().
func TestProfileCyclesMatchCPU(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi a0, zero, 1
    halt
`)
	prof := NewProfile()
	c.AttachProfile(prof)
	runToHalt(t, c, 10)
	var total uint64
	for _, h := range prof.Top(0) {
		total += h.Cycles
	}
	if total != c.Cycles() {
		t.Fatalf("profile charges %d cycles, CPU counted %d", total, c.Cycles())
	}
}

func itostr(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

package iss

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/isa"
)

// Memory map of the differential fuzz target's guest.
const (
	fzCode    = 0x400  // the fuzzed instructions
	fzData    = 0x2000 // scratch data
	fzDev     = 0x8000 // the logging device
	fzRAM     = 0x10000
	fzMaxCode = 256 // instructions
)

// fzPrologue points t0, t1 and t2 at the device, the code and the
// data; leaves s1 and s2 holding instruction words for self-modifying
// stores (addi a0, a0, 1 and mtsr status, t3) and t3 holding an
// interrupt-enable status; installs a trap handler that resumes after
// the trapping instruction with interrupts off; and jumps to the
// fuzzed code.
var fzPrologue = fmt.Sprintf(`
_start:
    li   t0, %#x
    li   t1, %#x
    li   t2, %#x
    li   t3, 1
    li   s1, %#x
    li   s2, %#x
    la   k0, handler
    mtsr ivec, k0
    jalr zero, t1, 0
.org 0x200
handler:
    mfsr k0, epc
    addi k0, k0, 4
    mtsr epc, k0
    mtsr status, zero
    eret
`, fzDev, fzCode, fzData,
	isa.EncodeMust(isa.Inst{Op: isa.ADDI, Rd: isa.RegA0, Rs1: isa.RegA0, Imm: 1}),
	isa.EncodeMust(isa.Inst{Op: isa.MTSR, Rs1: fzIE, Imm: isa.SRStatus}))

// fzIE is t3, the register the prologue leaves holding status IE.
const fzIE = isa.RegT0 + 3

// fzAccess is one access the logging device saw, with the CPU state it
// saw at that moment.
type fzAccess struct {
	Write        bool
	Off, Val     uint32
	Size         int
	PC           uint32
	Cycles, Inst uint64
}

// fzDevice logs every access with the CPU's PC, Cycles and
// Instructions, keeps four word registers (code may run from them),
// yields on a write with bit 0 set and clears IRQ 0 on one with bit 1
// set. It never raises a line: a line raised mid-batch is seen at the
// batch's end by Run but at the next instruction by Step.
type fzDevice struct {
	cpu  *CPU
	regs [4]uint32
	log  []fzAccess
}

func (d *fzDevice) Name() string { return "fuzzlog" }
func (d *fzDevice) Size() uint32 { return 16 }

func (d *fzDevice) Read(off uint32, size int) (uint32, error) {
	d.log = append(d.log, fzAccess{false, off, 0, size, d.cpu.PC, d.cpu.Cycles(), d.cpu.Instructions()})
	return d.regs[off/4%4] >> (8 * (off % 4)), nil
}

func (d *fzDevice) Write(off uint32, size int, v uint32) error {
	d.log = append(d.log, fzAccess{true, off, v, size, d.cpu.PC, d.cpu.Cycles(), d.cpu.Instructions()})
	d.regs[off/4%4] = v
	if v&1 != 0 {
		d.cpu.Yield()
	}
	if v&2 != 0 {
		d.cpu.ClearIRQ(0)
	}
	return nil
}

// fzInst turns four fuzz bytes into one instruction aimed at the
// interesting paths: loads and stores through the device, into the
// code and the data; short branches and jumps within the code; traps,
// interrupt enables and the rest of the system instructions.
func fzInst(b []byte) uint32 {
	// Code may write any register but the bases, t3 and the handler's.
	writable := []uint8{0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 20, 21, 22, 23, 24, 25, 26, 27}
	rd := writable[int(b[1])%len(writable)]
	rs1, rs2 := b[2]%isa.NumRegs, b[1]>>3%isa.NumRegs
	base := []uint8{isa.RegT0, isa.RegT0 + 1, isa.RegT0 + 2, rs1}[b[2]>>6]
	imm := int32(int8(b[3]))
	var in isa.Inst
	switch op := isa.Opcode(1 + int(b[0])%int(isa.MTSR)); {
	case op <= isa.REMU:
		in = isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}
	case op == isa.ANDI || op == isa.ORI || op == isa.XORI || op == isa.LUI:
		in = isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(b[3])}
	case op == isa.SLLI || op == isa.SRLI || op == isa.SRAI:
		in = isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: int32(b[3] % 32)}
	case op <= isa.LUI:
		in = isa.Inst{Op: op, Rd: rd, Rs1: rs1, Imm: imm}
	case op <= isa.LBU:
		in = isa.Inst{Op: op, Rd: rd, Rs1: base, Imm: imm & 0x1f}
	case op <= isa.SB:
		// The stored register may be any, s1 and s2 included.
		in = isa.Inst{Op: op, Rd: rs2, Rs1: base, Imm: imm & 0x3f}
	case op <= isa.BGEU:
		in = isa.Inst{Op: op, Rd: rs1, Rs1: rs2, Imm: imm % 8}
	case op == isa.JAL:
		in = isa.Inst{Op: op, Rd: rd, Imm: imm % 8}
	case op == isa.JALR:
		in = isa.Inst{Op: op, Rd: rd, Rs1: isa.RegT0 + 1, Imm: int32(b[3]) % fzMaxCode * isa.Word}
	case op == isa.MFSR:
		in = isa.Inst{Op: op, Rd: rd, Imm: int32(b[3] % isa.NumSRegs)}
	case op == isa.MTSR:
		// Mostly interrupt enables, so a pending line fires.
		in = isa.Inst{Op: op, Rs1: fzIE, Imm: isa.SRStatus}
		if b[3]&3 == 0 {
			in = isa.Inst{Op: op, Rs1: rs1, Imm: int32(b[3] >> 2 % isa.NumSRegs)}
		}
	default: // ECALL, EBREAK, ERET, WFI, HALT
		in = isa.Inst{Op: op}
	}
	return isa.EncodeMust(in)
}

// fzRun is everything one execution of a fuzz input produced.
type fzRun struct {
	Stops        []string
	Regs         [isa.NumRegs]uint32
	SR           [isa.NumSRegs]uint32
	PC           uint32
	Cycles, Inst uint64
	DC           [3]uint64
	Log          []fzAccess
	RAM          []byte
}

// fzExecute loads the prologue and the fuzzed code, then makes the
// seeded sequence of runs: each with RunLimit when batched, else by
// Step one at a time under the same budget and cycle limit. Between
// runs it arms breakpoints, re-raises IRQ 0, steps past an
// EBREAK and wakes an idle CPU, the same way in both modes.
func fzExecute(t *testing.T, prologue *asm.Image, code []byte, seed int64, batched bool) fzRun {
	ram := NewRAM(fzRAM)
	if err := prologue.LoadInto(ram); err != nil {
		t.Fatal(err)
	}
	n := min(len(code)/4, fzMaxCode)
	words := make([]byte, 4*(n+1))
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(words[4*i:], fzInst(code[4*i:]))
	}
	// The code ends by looping back to its start.
	binary.LittleEndian.PutUint32(words[4*n:], isa.EncodeMust(isa.Inst{Op: isa.JAL, Imm: int32(-n)}))
	if err := ram.LoadBytes(fzCode, words); err != nil {
		t.Fatal(err)
	}
	bus := NewSystemBus(ram)
	c := New(bus)
	dev := &fzDevice{cpu: c, regs: [4]uint32{isa.EncodeMust(isa.Inst{Op: isa.ADDI, Rd: 10, Rs1: 10, Imm: 3})}}
	if err := bus.Map(fzDev, dev); err != nil {
		t.Fatal(err)
	}
	c.Reset(prologue.Entry)
	c.RaiseIRQ(0)

	rng := rand.New(rand.NewSource(seed))
	var r fzRun
runs:
	for run := 0; run < 40; run++ {
		budget := 1 + uint64(rng.Intn(150))
		limit := uint64(math.MaxUint64)
		if rng.Intn(2) == 0 {
			limit = c.Cycles() + uint64(rng.Intn(200))
		}
		var stop Stop
		var got uint64
		if batched {
			stop, got = c.RunLimit(budget, limit)
		} else {
			start := c.Instructions()
			stop = StopBudget
			for steps := uint64(0); steps < budget && c.Cycles() < limit; steps++ {
				if s := c.Step(); s != StopBudget {
					stop = s
					break
				}
			}
			got = c.Instructions() - start
		}
		r.Stops = append(r.Stops, fmt.Sprintf("%v/%d@%#x", stop, got, c.PC))
		switch stop {
		case StopHalt, StopError, StopEcall:
			break runs
		case StopEBreak:
			c.PC += isa.Word
		case StopIdle:
			c.RaiseIRQ(0)
		}
		switch rng.Intn(6) {
		case 0:
			c.AddBreakpoint(fzCode + uint32(rng.Intn(n+1))*isa.Word)
		case 1:
			c.RaiseIRQ(0)
		}
	}
	r.Regs, r.SR, r.PC = c.Regs, c.SR, c.PC
	r.Cycles, r.Inst = c.Cycles(), c.Instructions()
	r.DC[0], r.DC[1], r.DC[2] = c.DecodeCacheStats()
	r.Log = dev.log
	r.RAM = make([]byte, fzRAM)
	if err := ram.ReadBytes(0, r.RAM); err != nil {
		t.Fatal(err)
	}
	return r
}

// FuzzRunMatchesStep is the differential check of the batched
// execution loop: a guest of fuzzed instructions (self-modifying
// stores, device accesses that yield, interrupt enables with a line
// pending, breakpoints, traps) must end in the same state, stop for
// the same reasons, and show the device the same PC, cycle and
// instruction counts, whether RunLimit runs it in batches or Step runs
// it one instruction at a time under the same budgets and limits.
func FuzzRunMatchesStep(f *testing.F) {
	prologue, err := asm.Assemble(asm.Options{}, asm.Source{Name: "prologue.s", Text: fzPrologue})
	if err != nil {
		f.Fatal(err)
	}
	// fz encodes the fuzz bytes fzInst turns into op with the given
	// operand bytes.
	fz := func(op isa.Opcode, b1, b2, b3 byte) []byte { return []byte{byte(op - 1), b1, b2, b3} }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte{}, int64(1))
	// addi; a store of t3 (bit 0: yield) to the device; a device load.
	f.Add(cat(fz(isa.ADDI, 8, 10, 5), fz(isa.SW, fzIE<<3, 0, 0), fz(isa.LW, 9, 0, 4), fz(isa.ADD, 10, 10, 0)), int64(2))
	// An interrupt enable while IRQ 0 is pending, then ALU work.
	f.Add(cat(fz(isa.ADDI, 8, 10, 1), fz(isa.MTSR, 0, 0, 1), fz(isa.ADDI, 9, 11, 1), fz(isa.ADDI, 9, 11, 1)), int64(3))
	// Stores of s1 and s2 over the code ahead.
	f.Add(cat(fz(isa.SW, 5<<3, 0x40, 12), fz(isa.SW, 6<<3, 0x40, 16), fz(isa.ADDI, 8, 10, 1), fz(isa.ADDI, 8, 10, 1), fz(isa.ADDI, 8, 10, 1)), int64(4))
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		code := make([]byte, 4*(8+rng.Intn(64)))
		rng.Read(code)
		f.Add(code, rng.Int63())
	}
	f.Fuzz(func(t *testing.T, code []byte, seed int64) {
		batched := fzExecute(t, prologue, code, seed, true)
		stepped := fzExecute(t, prologue, code, seed, false)
		if !reflect.DeepEqual(batched.Stops, stepped.Stops) {
			t.Fatalf("stop sequences differ:\n run  %v\n step %v", batched.Stops, stepped.Stops)
		}
		if !reflect.DeepEqual(batched.Log, stepped.Log) {
			t.Fatalf("device logs differ:\n run  %+v\n step %+v", batched.Log, stepped.Log)
		}
		if !reflect.DeepEqual(batched, stepped) {
			t.Fatalf("end states differ:\n run  regs %v sr %v pc %#x cycles %d instructions %d cache %v\n step regs %v sr %v pc %#x cycles %d instructions %d cache %v",
				batched.Regs, batched.SR, batched.PC, batched.Cycles, batched.Inst, batched.DC,
				stepped.Regs, stepped.SR, stepped.PC, stepped.Cycles, stepped.Inst, stepped.DC)
		}
	})
}

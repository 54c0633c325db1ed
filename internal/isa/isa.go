// Package isa defines FV32, the 32-bit RISC instruction set executed by
// the project's instruction-set simulator (internal/iss).
//
// FV32 stands in for the paper's i386 synthetic target: a fixed-width
// 32-bit load/store architecture with 32 general-purpose registers, a
// small special-register file for trap and interrupt state, and an
// EBREAK instruction a debugger can write into code as a software
// breakpoint.
//
// Encoding (all instructions are 32 bits):
//
//	bits 31..26  primary opcode
//	R-type: rd[25:21] rs1[20:16] rs2[15:11] funct[10:0]
//	I-type: rd[25:21] rs1[20:16] imm16[15:0]   (sign-extended)
//	B-type: ra[25:21] rb[20:16]  off16[15:0]   (word offset, pc-relative)
//	J-type: rd[25:21] imm21[20:0]              (word offset, pc-relative)
package isa

import "fmt"

// Word is the architectural word size in bytes.
const Word = 4

// NumRegs is the number of general-purpose registers.
const NumRegs = 32

// Format describes how an instruction's operands are encoded.
type Format uint8

const (
	FmtR Format = iota // rd, rs1, rs2
	FmtI               // rd, rs1, imm16
	FmtB               // ra, rb, offset16 (branches)
	FmtJ               // rd, imm21 (JAL)
	FmtS               // system: imm16 selects operation/special register
)

// Opcode is a mnemonic-level operation.
type Opcode uint8

// The FV32 instruction set.
const (
	BAD Opcode = iota

	// R-type ALU.
	ADD
	SUB
	AND
	OR
	XOR
	NOR
	SLL
	SRL
	SRA
	SLT
	SLTU
	MUL
	MULH
	DIV
	DIVU
	REM
	REMU

	// I-type ALU.
	ADDI
	ANDI
	ORI
	XORI
	SLTI
	SLTIU
	SLLI
	SRLI
	SRAI
	LUI // rd = imm16 << 16

	// Loads (rd = mem[rs1+imm]).
	LW
	LH
	LHU
	LB
	LBU

	// Stores (mem[rs1+imm] = rd).
	SW
	SH
	SB

	// Branches (if ra OP rb: pc += off*4).
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// Jumps.
	JAL  // rd = pc+4; pc += imm*4
	JALR // rd = pc+4; pc = (rs1+imm) &^ 3

	// System.
	ECALL  // environment call (syscall trap)
	EBREAK // software breakpoint (used by the GDB stub)
	ERET   // return from trap/interrupt
	WFI    // wait for interrupt
	HALT   // stop the processor
	MFSR   // rd = SR[imm]
	MTSR   // SR[imm] = rs1

	numOpcodes
)

// Special registers (the SR file accessed by MFSR/MTSR).
const (
	SRStatus  = 0 // bit0 = IE (interrupt enable), bit1 = PIE (previous IE)
	SREPC     = 1 // exception PC
	SRCause   = 2 // trap cause
	SRIVec    = 3 // interrupt/trap vector base
	SRScratch = 4 // kernel scratch
	SRCycle   = 5 // cycle counter, low 32 bits (read-only)
	SRCycleH  = 6 // cycle counter, high 32 bits (read-only)
	NumSRegs  = 8
)

// STATUS register bits.
const (
	StatusIE  = 1 << 0
	StatusPIE = 1 << 1
)

// Trap causes (SRCause values).
const (
	CauseNone    = 0
	CauseECall   = 1
	CauseEBreak  = 2
	CauseIllegal = 3
	CauseAlign   = 4
	CauseBus     = 5  // bus error: access to an unmapped or rejecting address
	CauseIRQBase = 16 // cause for external IRQ n is CauseIRQBase+n
)

// NumIRQ is the number of external interrupt lines.
const NumIRQ = 8

// info captures the encoding of one opcode.
type info struct {
	name   string
	fmt    Format
	op     uint32 // primary opcode (6 bits)
	funct  uint32 // R-type funct / S-type selector
	hasImm bool
}

var opInfo = [numOpcodes]info{
	BAD: {name: "bad"},

	ADD:  {"add", FmtR, 0x00, 0, false},
	SUB:  {"sub", FmtR, 0x00, 1, false},
	AND:  {"and", FmtR, 0x00, 2, false},
	OR:   {"or", FmtR, 0x00, 3, false},
	XOR:  {"xor", FmtR, 0x00, 4, false},
	NOR:  {"nor", FmtR, 0x00, 5, false},
	SLL:  {"sll", FmtR, 0x00, 6, false},
	SRL:  {"srl", FmtR, 0x00, 7, false},
	SRA:  {"sra", FmtR, 0x00, 8, false},
	SLT:  {"slt", FmtR, 0x00, 9, false},
	SLTU: {"sltu", FmtR, 0x00, 10, false},
	MUL:  {"mul", FmtR, 0x00, 11, false},
	MULH: {"mulh", FmtR, 0x00, 12, false},
	DIV:  {"div", FmtR, 0x00, 13, false},
	DIVU: {"divu", FmtR, 0x00, 14, false},
	REM:  {"rem", FmtR, 0x00, 15, false},
	REMU: {"remu", FmtR, 0x00, 16, false},

	ADDI:  {"addi", FmtI, 0x01, 0, true},
	ANDI:  {"andi", FmtI, 0x02, 0, true},
	ORI:   {"ori", FmtI, 0x03, 0, true},
	XORI:  {"xori", FmtI, 0x04, 0, true},
	SLTI:  {"slti", FmtI, 0x05, 0, true},
	SLTIU: {"sltiu", FmtI, 0x06, 0, true},
	SLLI:  {"slli", FmtI, 0x07, 0, true},
	SRLI:  {"srli", FmtI, 0x08, 0, true},
	SRAI:  {"srai", FmtI, 0x09, 0, true},
	LUI:   {"lui", FmtI, 0x0a, 0, true},

	LW:  {"lw", FmtI, 0x10, 0, true},
	LH:  {"lh", FmtI, 0x11, 0, true},
	LHU: {"lhu", FmtI, 0x12, 0, true},
	LB:  {"lb", FmtI, 0x13, 0, true},
	LBU: {"lbu", FmtI, 0x14, 0, true},

	SW: {"sw", FmtI, 0x18, 0, true},
	SH: {"sh", FmtI, 0x19, 0, true},
	SB: {"sb", FmtI, 0x1a, 0, true},

	BEQ:  {"beq", FmtB, 0x20, 0, true},
	BNE:  {"bne", FmtB, 0x21, 0, true},
	BLT:  {"blt", FmtB, 0x22, 0, true},
	BGE:  {"bge", FmtB, 0x23, 0, true},
	BLTU: {"bltu", FmtB, 0x24, 0, true},
	BGEU: {"bgeu", FmtB, 0x25, 0, true},

	JAL:  {"jal", FmtJ, 0x28, 0, true},
	JALR: {"jalr", FmtI, 0x29, 0, true},

	ECALL:  {"ecall", FmtS, 0x30, 0, false},
	EBREAK: {"ebreak", FmtS, 0x30, 1, false},
	ERET:   {"eret", FmtS, 0x30, 2, false},
	WFI:    {"wfi", FmtS, 0x30, 3, false},
	HALT:   {"halt", FmtS, 0x30, 4, false},
	MFSR:   {"mfsr", FmtI, 0x31, 0, true},
	MTSR:   {"mtsr", FmtI, 0x32, 0, true},
}

// Name returns the assembler mnemonic.
func (o Opcode) Name() string {
	if o >= numOpcodes {
		return "bad"
	}
	return opInfo[o].name
}

// Format returns the operand encoding format.
func (o Opcode) Format() Format {
	if o >= numOpcodes {
		return FmtS
	}
	return opInfo[o].fmt
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o > BAD && o < numOpcodes }

// String implements fmt.Stringer.
func (o Opcode) String() string { return o.Name() }

// OpcodeByName resolves an assembler mnemonic; BAD if unknown.
func OpcodeByName(name string) Opcode {
	return mnemonics[name]
}

var mnemonics = func() map[string]Opcode {
	m := make(map[string]Opcode, int(numOpcodes))
	for o := Opcode(1); o < numOpcodes; o++ {
		m[opInfo[o].name] = o
	}
	return m
}()

// Inst is a decoded instruction.
type Inst struct {
	Op  Opcode
	Rd  uint8 // destination (or store source, or branch ra)
	Rs1 uint8 // first source (or branch rb)
	Rs2 uint8 // second source (R-type only)
	Imm int32 // immediate / offset, sign-extended
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch i.Op.Format() {
	case FmtR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, RegName(i.Rd), RegName(i.Rs1), RegName(i.Rs2))
	case FmtI:
		switch i.Op {
		case LW, LH, LHU, LB, LBU, SW, SH, SB:
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, RegName(i.Rd), i.Imm, RegName(i.Rs1))
		case LUI:
			return fmt.Sprintf("%s %s, %d", i.Op, RegName(i.Rd), uint32(i.Imm)&0xffff)
		case JALR:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), RegName(i.Rs1), i.Imm)
		case MFSR:
			return fmt.Sprintf("%s %s, %d", i.Op, RegName(i.Rd), i.Imm)
		case MTSR:
			return fmt.Sprintf("%s %d, %s", i.Op, i.Imm, RegName(i.Rs1))
		default:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), RegName(i.Rs1), i.Imm)
		}
	case FmtB:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, RegName(i.Rd), RegName(i.Rs1), i.Imm)
	case FmtJ:
		return fmt.Sprintf("%s %s, %d", i.Op, RegName(i.Rd), i.Imm)
	default:
		return i.Op.Name()
	}
}

package isa

import "fmt"

// Field extraction helpers.
func bits(w uint32, hi, lo uint) uint32 { return (w >> lo) & (1<<(hi-lo+1) - 1) }

// signExtend sign-extends the low n bits of v.
func signExtend(v uint32, n uint) int32 {
	shift := 32 - n
	return int32(v<<shift) >> shift
}

// immFits reports whether imm is representable in n signed bits.
func immFits(imm int32, n uint) bool {
	min := int32(-1) << (n - 1)
	max := int32(1)<<(n-1) - 1
	return imm >= min && imm <= max
}

// Encode packs a decoded instruction into its 32-bit machine form.
func Encode(i Inst) (uint32, error) {
	if !i.Op.Valid() {
		return 0, fmt.Errorf("isa: invalid opcode %d", i.Op)
	}
	inf := opInfo[i.Op]
	if i.Rd >= NumRegs || i.Rs1 >= NumRegs || i.Rs2 >= NumRegs {
		return 0, fmt.Errorf("isa: %s: register out of range", inf.name)
	}
	w := inf.op << 26
	switch inf.fmt {
	case FmtR:
		w |= uint32(i.Rd)<<21 | uint32(i.Rs1)<<16 | uint32(i.Rs2)<<11 | inf.funct
	case FmtI:
		var imm uint32
		switch i.Op {
		case LUI:
			// LUI takes an unsigned 16-bit upper immediate.
			if i.Imm < 0 || i.Imm > 0xffff {
				return 0, fmt.Errorf("isa: lui: immediate %d out of range [0,65535]", i.Imm)
			}
			imm = uint32(i.Imm)
		case SLLI, SRLI, SRAI:
			if i.Imm < 0 || i.Imm > 31 {
				return 0, fmt.Errorf("isa: %s: shift amount %d out of range [0,31]", inf.name, i.Imm)
			}
			imm = uint32(i.Imm)
		case MFSR, MTSR:
			if i.Imm < 0 || i.Imm >= NumSRegs {
				return 0, fmt.Errorf("isa: %s: special register %d out of range", inf.name, i.Imm)
			}
			imm = uint32(i.Imm)
		case ANDI, ORI, XORI:
			// Logical immediates are zero-extended (MIPS-style), so that
			// lui+ori composes arbitrary 32-bit constants.
			if i.Imm < 0 || i.Imm > 0xffff {
				return 0, fmt.Errorf("isa: %s: immediate %d out of range [0,65535]", inf.name, i.Imm)
			}
			imm = uint32(i.Imm)
		default:
			if !immFits(i.Imm, 16) {
				return 0, fmt.Errorf("isa: %s: immediate %d out of 16-bit range", inf.name, i.Imm)
			}
			imm = uint32(i.Imm) & 0xffff
		}
		w |= uint32(i.Rd)<<21 | uint32(i.Rs1)<<16 | imm
	case FmtB:
		if !immFits(i.Imm, 16) {
			return 0, fmt.Errorf("isa: %s: branch offset %d out of 16-bit range", inf.name, i.Imm)
		}
		w |= uint32(i.Rd)<<21 | uint32(i.Rs1)<<16 | uint32(i.Imm)&0xffff
	case FmtJ:
		if !immFits(i.Imm, 21) {
			return 0, fmt.Errorf("isa: jal: offset %d out of 21-bit range", i.Imm)
		}
		w |= uint32(i.Rd)<<21 | uint32(i.Imm)&0x1fffff
	case FmtS:
		w |= inf.funct
	}
	return w, nil
}

// rTypeByFunct maps funct values back to R-type opcodes.
var rTypeByFunct = func() map[uint32]Opcode {
	m := make(map[uint32]Opcode)
	for o := Opcode(1); o < numOpcodes; o++ {
		if opInfo[o].fmt == FmtR {
			m[opInfo[o].funct] = o
		}
	}
	return m
}()

// sTypeByFunct maps system selector values back to opcodes.
var sTypeByFunct = func() map[uint32]Opcode {
	m := make(map[uint32]Opcode)
	for o := Opcode(1); o < numOpcodes; o++ {
		if opInfo[o].fmt == FmtS {
			m[opInfo[o].funct] = o
		}
	}
	return m
}()

// primaryOp maps primary opcode values to non-R non-S opcodes.
var primaryOp = func() map[uint32]Opcode {
	m := make(map[uint32]Opcode)
	for o := Opcode(1); o < numOpcodes; o++ {
		switch opInfo[o].fmt {
		case FmtR, FmtS:
		default:
			m[opInfo[o].op] = o
		}
	}
	return m
}()

// Decode unpacks a 32-bit machine word. It returns an error for encodings
// that do not correspond to any defined instruction.
func Decode(w uint32) (Inst, error) {
	op := bits(w, 31, 26)
	var i Inst
	switch op {
	case 0x00: // R-type
		funct := bits(w, 10, 0)
		o, ok := rTypeByFunct[funct]
		if !ok {
			return Inst{}, fmt.Errorf("isa: illegal R-type funct %#x", funct)
		}
		i = Inst{Op: o, Rd: uint8(bits(w, 25, 21)), Rs1: uint8(bits(w, 20, 16)), Rs2: uint8(bits(w, 15, 11))}
	case 0x30: // system
		funct := bits(w, 10, 0)
		o, ok := sTypeByFunct[funct]
		if !ok {
			return Inst{}, fmt.Errorf("isa: illegal system funct %#x", funct)
		}
		i = Inst{Op: o}
	default:
		o, ok := primaryOp[op]
		if !ok {
			return Inst{}, fmt.Errorf("isa: illegal opcode %#x", op)
		}
		i = Inst{Op: o, Rd: uint8(bits(w, 25, 21))}
		switch opInfo[o].fmt {
		case FmtI, FmtB:
			i.Rs1 = uint8(bits(w, 20, 16))
			raw := bits(w, 15, 0)
			switch o {
			case LUI, SLLI, SRLI, SRAI, MFSR, MTSR, ANDI, ORI, XORI:
				i.Imm = int32(raw)
			default:
				i.Imm = signExtend(raw, 16)
			}
		case FmtJ:
			i.Imm = signExtend(bits(w, 20, 0), 21)
		}
	}
	return i, nil
}

// Disassemble decodes and formats a machine word; illegal encodings
// render as ".word 0x...".
func Disassemble(w uint32) string {
	i, err := Decode(w)
	if err != nil {
		return fmt.Sprintf(".word %#08x", w)
	}
	return i.String()
}

// EncodeMust encodes and panics on error; for use in tests and
// generated-code builders where the instruction is known valid.
func EncodeMust(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// BreakpointWord is the machine encoding of EBREAK, which a debugger may
// write into code as a software breakpoint. (The GDB stub serves Z0
// with the CPU's breakpoints instead and writes none.)
var BreakpointWord = EncodeMust(Inst{Op: EBREAK})

// NopWord is the canonical no-op encoding (addi zero, zero, 0).
var NopWord = EncodeMust(Inst{Op: ADDI})

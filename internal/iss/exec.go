package iss

import (
	"math"

	"cosim/internal/isa"
)

// reg reads a register. Register fields decode to five bits, so the
// mask only spares a bounds check.
func (c *CPU) reg(r uint8) uint32 { return c.Regs[r%isa.NumRegs] }

// setReg writes a register, keeping r0 hardwired to zero.
func (c *CPU) setReg(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r%isa.NumRegs] = v
	}
}

// Step executes one instruction, or takes one pending trap, and returns
// the stop condition: it is RunLimit with a budget of one step, so
// StopBudget means "executed fine, keep going", and a step that stops
// at a hardware breakpoint arms the step-over as Run does.
func (c *CPU) Step() Stop {
	stop, _ := c.RunLimit(1, math.MaxUint64)
	return stop
}

// checkInterval is how many instructions the batched hot loop retires
// between re-checks of the halted/sleeping/interrupt conditions. It
// bounds IRQ delivery latency and matches dev.TickQuantum, so platform
// timer jitter is unchanged by batching.
const checkInterval = 64

// Run executes up to budget instructions, returning the stop reason and
// the number of instructions actually executed. When resuming from a
// hardware breakpoint, the instruction at the breakpoint executes first.
//
// The halted/sleeping/IRQ checks run between batches: every
// checkInterval instructions, and after any instruction that may change
// whether an interrupt is deliverable or that the decode cache did not
// serve. Breakpoints still hit exactly (they are folded into the cache
// entries).
func (c *CPU) Run(budget uint64) (Stop, uint64) { return c.RunLimit(budget, math.MaxUint64) }

// RunLimit is Run that also returns StopBudget once the cycle count
// reaches limit: the instruction that crosses it is the last to run.
func (c *CPU) RunLimit(budget, limit uint64) (Stop, uint64) {
	start := c.icount
	for steps := uint64(0); steps < budget && c.cycles < limit; {
		if c.halted {
			return StopHalt, c.icount - start
		}
		if c.sleeping {
			if c.PendingIRQ() == 0 {
				return StopIdle, c.icount - start
			}
			c.sleeping = false
		}
		if c.checkIRQ() {
			steps++ // trap entry consumes a step without retiring
			continue
		}
		stop, n := c.runBatch(min(budget-steps, checkInterval), limit)
		steps += n
		if stop != StopBudget {
			if stop == StopBreak {
				c.StepOverBreakpoint()
			}
			return stop, c.icount - start
		}
	}
	return StopBudget, c.icount - start
}

// runBatch is the execution loop: up to n steps with no interrupt or
// halt re-checks (the caller has just done them), ending early once
// the cycle count reaches limit, after an entry flagged dcEnds, or on
// a stop. It returns the stop and the steps taken.
//
// The PC, the cycle count and the retired count live in locals for the
// whole batch. They are written back to the CPU before anything else
// can see them (the fetch slow path, a device access, a fault, the
// ECALL handler) and on exit, and re-read after any call that may
// change them. MFSR reads the local cycle count.
func (c *CPU) runBatch(n, limit uint64) (stop Stop, i uint64) {
	prof := c.profile
	pc, cycles, icount := c.PC, c.cycles, c.icount
	var hits uint64
	// page holds the entries of the PCs from base on: the page of the
	// last cache entry the loop ran, or an empty page, whose entries are
	// never hot, until the slow path has run a step-over.
	page, base := c.dc.pageOf(pc), pc&^(1<<dcPageShift-1)
	if c.stepOverBP {
		page = &noPage
	}
loop:
	for i < n {
		off := pc - base
		e := &page[off>>2%dcPageWords]
		if off&^(1<<dcPageShift-isa.Word) == 0 && e.flags&(dcDecoded|dcBP) == dcDecoded {
			hits++
		} else {
			c.PC, c.cycles, c.icount = pc, cycles, icount
			e, stop = c.fetch()
			pc, cycles, icount = c.PC, c.cycles, c.icount
			if e == nil {
				if stop == StopBudget {
					i++ // a fetch fault entered the trap vector
				}
				break
			}
			if e != &c.scratch {
				page, base = c.dc.pageOf(pc), pc&^(1<<dcPageShift-1)
			}
		}
		in, flags := e.inst, e.flags
		cost := c.cpi.Default
		next := pc + isa.Word
		rs1 := c.reg(in.Rs1)
		rs2 := c.reg(in.Rs2)
		imm := uint32(in.Imm)
		var cause uint32

		switch in.Op {
		// --- R-type ALU ---
		case isa.ADD:
			c.setReg(in.Rd, rs1+rs2)
		case isa.SUB:
			c.setReg(in.Rd, rs1-rs2)
		case isa.AND:
			c.setReg(in.Rd, rs1&rs2)
		case isa.OR:
			c.setReg(in.Rd, rs1|rs2)
		case isa.XOR:
			c.setReg(in.Rd, rs1^rs2)
		case isa.NOR:
			c.setReg(in.Rd, ^(rs1 | rs2))
		case isa.SLL:
			c.setReg(in.Rd, rs1<<(rs2&31))
		case isa.SRL:
			c.setReg(in.Rd, rs1>>(rs2&31))
		case isa.SRA:
			c.setReg(in.Rd, uint32(int32(rs1)>>(rs2&31)))
		case isa.SLT:
			c.setReg(in.Rd, boolTo(int32(rs1) < int32(rs2)))
		case isa.SLTU:
			c.setReg(in.Rd, boolTo(rs1 < rs2))
		case isa.MUL:
			cost = c.cpi.Mul
			c.setReg(in.Rd, rs1*rs2)
		case isa.MULH:
			cost = c.cpi.Mul
			c.setReg(in.Rd, uint32(uint64(int64(int32(rs1))*int64(int32(rs2)))>>32))
		case isa.DIV:
			cost = c.cpi.Div
			c.setReg(in.Rd, div32(rs1, rs2))
		case isa.DIVU:
			cost = c.cpi.Div
			if rs2 == 0 {
				c.setReg(in.Rd, ^uint32(0))
			} else {
				c.setReg(in.Rd, rs1/rs2)
			}
		case isa.REM:
			cost = c.cpi.Div
			c.setReg(in.Rd, rem32(rs1, rs2))
		case isa.REMU:
			cost = c.cpi.Div
			if rs2 == 0 {
				c.setReg(in.Rd, rs1)
			} else {
				c.setReg(in.Rd, rs1%rs2)
			}

		// --- I-type ALU ---
		case isa.ADDI:
			c.setReg(in.Rd, rs1+imm)
		case isa.ANDI:
			c.setReg(in.Rd, rs1&imm)
		case isa.ORI:
			c.setReg(in.Rd, rs1|imm)
		case isa.XORI:
			c.setReg(in.Rd, rs1^imm)
		case isa.SLTI:
			c.setReg(in.Rd, boolTo(int32(rs1) < in.Imm))
		case isa.SLTIU:
			c.setReg(in.Rd, boolTo(rs1 < imm))
		case isa.SLLI:
			c.setReg(in.Rd, rs1<<(imm&31))
		case isa.SRLI:
			c.setReg(in.Rd, rs1>>(imm&31))
		case isa.SRAI:
			c.setReg(in.Rd, uint32(int32(rs1)>>(imm&31)))
		case isa.LUI:
			c.setReg(in.Rd, imm<<16)

		// --- loads ---
		case isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU:
			cost = c.cpi.Load
			addr := rs1 + imm
			m := memOps[in.Op]
			if addr&uint32(m.size-1) != 0 {
				cause = isa.CauseAlign
				goto fault
			}
			var v uint32
			var err error
			if b := c.sbus; b != nil && b.belowDevices(addr, int(m.size)) {
				v, err = b.ram.Read(addr, int(m.size))
			} else {
				c.PC, c.cycles, c.icount = pc, cycles, icount
				v, err = c.bus.Read(addr, int(m.size))
				cycles, icount = c.cycles, c.icount
			}
			if err != nil {
				cause = isa.CauseBus
				goto fault
			}
			c.setReg(in.Rd, uint32(int32(v<<m.ext)>>m.ext))

		// --- stores ---
		case isa.SW, isa.SH, isa.SB:
			cost = c.cpi.Store
			addr := rs1 + imm
			m := memOps[in.Op]
			if addr&uint32(m.size-1) != 0 {
				cause = isa.CauseAlign
				goto fault
			}
			var err error
			if b := c.sbus; b != nil && b.belowDevices(addr, int(m.size)) {
				err = b.ram.Write(addr, int(m.size), c.reg(in.Rd))
			} else {
				c.PC, c.cycles, c.icount = pc, cycles, icount
				err = c.bus.Write(addr, int(m.size), c.reg(in.Rd))
				cycles, icount = c.cycles, c.icount
			}
			if err != nil {
				cause = isa.CauseBus
				goto fault
			}
			// Self-modifying code: drop the predecoded entry the store
			// clobbers (an aligned store lies within one word).
			if e := c.dc.peek(addr &^ 3); e != nil && e.flags&dcDecoded != 0 {
				e.flags &^= dcDecoded
				c.dcInvalidations++
			}
			if c.yield {
				c.yield = false
				stop, flags = StopYield, flags|dcEnds
			} else if len(c.watchpoints) != 0 && c.watchTriggered(addr, int(m.size)) {
				stop, flags = StopWatch, flags|dcEnds
			}

		// --- branches (the encoder stores ra in Rd and rb in Rs1) ---
		case isa.BEQ:
			if c.reg(in.Rd) == rs1 {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}
		case isa.BNE:
			if c.reg(in.Rd) != rs1 {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}
		case isa.BLT:
			if int32(c.reg(in.Rd)) < int32(rs1) {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}
		case isa.BGE:
			if int32(c.reg(in.Rd)) >= int32(rs1) {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}
		case isa.BLTU:
			if c.reg(in.Rd) < rs1 {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}
		case isa.BGEU:
			if c.reg(in.Rd) >= rs1 {
				cost, next = c.cpi.Branch, pc+imm*isa.Word
			}

		// --- jumps ---
		case isa.JAL:
			cost = c.cpi.Branch
			c.setReg(in.Rd, pc+isa.Word)
			next = pc + imm*isa.Word
		case isa.JALR:
			cost = c.cpi.Branch
			c.setReg(in.Rd, pc+isa.Word)
			next = (rs1 + imm) &^ 3

		// --- system ---
		case isa.ECALL:
			if c.SR[isa.SRIVec] != 0 {
				// The ECALL retires into the trap vector; ERET resumes
				// after it.
				next = c.enterTrap(isa.CauseECall, next)
				cycles += c.cpi.Trap
				break
			}
			if c.Syscall != nil {
				// The handler sees the PC after the ECALL; the ECALL
				// retires to the PC it leaves.
				c.PC, c.cycles, c.icount = next, cycles, icount
				handled := c.Syscall(c)
				cycles, icount = c.cycles, c.icount
				if handled {
					next = c.PC
					break
				}
			}
			stop = StopEcall
			break loop
		case isa.EBREAK:
			// PC stays at the EBREAK address: GDB expects a software
			// breakpoint written into code to stop there.
			stop = StopEBreak
			break loop
		case isa.ERET:
			// Restore IE from PIE and return to EPC.
			st := c.SR[isa.SRStatus]
			c.SR[isa.SRStatus] = (st &^ isa.StatusIE) | (st&isa.StatusPIE)>>1
			next = c.SR[isa.SREPC]
		case isa.WFI:
			if c.PendingIRQ() == 0 {
				c.sleeping = true
				stop = StopIdle
			}
		case isa.HALT:
			cost = 0 // HALT retires without costing a cycle
			c.halted = true
			stop, flags = StopHalt, flags|dcEnds
		case isa.MFSR:
			c.SR[isa.SRCycle], c.SR[isa.SRCycleH] = uint32(cycles), uint32(cycles>>32)
			c.setReg(in.Rd, c.SR[in.Imm&(isa.NumSRegs-1)])
		case isa.MTSR:
			sr := int(in.Imm) & (isa.NumSRegs - 1)
			if sr != isa.SRCycle && sr != isa.SRCycleH {
				c.SR[sr] = rs1
			}

		default:
			cause = isa.CauseIllegal
			goto fault
		}

		if prof != nil {
			prof.record(pc, cost)
		}
		pc, cycles, icount = next, cycles+cost, icount+1
		i++
		if flags&dcEnds != 0 || cycles >= limit {
			break
		}
		continue

	fault:
		// No retire: the trap vector takes the fault, or the CPU stops.
		c.PC, c.cycles, c.icount = pc, cycles, icount
		if stop = c.fault(cause); stop != StopBudget {
			break
		}
		pc, cycles = c.PC, c.cycles
		i++
		if flags&dcEnds != 0 || cycles >= limit {
			break
		}
	}
	c.PC, c.cycles, c.icount = pc, cycles, icount
	c.dcHits += hits
	return stop, i
}

// fetch is the loop's slow path at c.PC, taken when the cache cannot
// serve it as is: a breakpoint, a pending step-over, a decode miss, or
// a PC the cache does not cover. It returns the entry to execute; or
// nil with StopBreak, or with the outcome of a fetch fault (StopBudget
// if the trap vector took it). A decode miss is filled into the cache
// when the word is plain RAM, and is executed from the scratch entry
// flagged dcEnds: the batch ends after it, so an instruction the batch
// did not know cannot outrun an interrupt-enable change.
func (c *CPU) fetch() (*dcEntry, Stop) {
	pc := c.PC
	var e *dcEntry
	bp := false
	if c.dc.covers(pc) {
		e = c.dc.entry(pc)
		bp = e.flags&dcBP != 0
	} else {
		_, bp = c.breakpoints[pc]
	}
	if bp && !(c.stepOverBP && c.stepOverPC == pc) {
		return nil, StopBreak
	}
	if e != nil && e.flags&dcDecoded != 0 {
		c.dcHits++
		c.stepOverBP = false
		return e, StopBudget
	}
	if pc%isa.Word != 0 {
		return nil, c.fault(isa.CauseAlign)
	}
	w, err := c.load(pc, isa.Word)
	if err != nil {
		return nil, c.fault(isa.CauseBus)
	}
	inst, derr := isa.Decode(w)
	if derr != nil {
		return nil, c.fault(isa.CauseIllegal)
	}
	c.stepOverBP = false
	flags := dcDecoded
	if op := inst.Op; op == isa.MTSR || op == isa.ERET || op == isa.WFI {
		// Interrupt deliverability may change (IE toggled, trap
		// return, wake with a pending line): hand control back to
		// RunLimit's checks at once.
		flags |= dcEnds
	}
	// Device-mapped code is never cached: the device may return a
	// different word on the next fetch.
	if e != nil && c.busIsRAM(pc) {
		c.dcMisses++
		e.inst, e.flags = inst, e.flags|flags
	}
	c.scratch = dcEntry{inst: inst, flags: flags | dcEnds}
	return &c.scratch, StopBudget
}

// busIsRAM reports whether the word at addr is plain RAM (no device
// overlay) on the CPU's bus; other buses trivially qualify.
func (c *CPU) busIsRAM(addr uint32) bool {
	return c.sbus == nil || c.sbus.find(addr, isa.Word) == nil
}

// load reads guest memory. On a SystemBus an access wholly below the
// lowest device base goes straight to RAM; everything else takes the
// Bus interface.
func (c *CPU) load(addr uint32, size int) (uint32, error) {
	if b := c.sbus; b != nil && b.belowDevices(addr, size) {
		return b.ram.Read(addr, size)
	}
	return c.bus.Read(addr, size)
}

// fault routes a synchronous fault to the trap vector if one is
// installed, else stops the CPU.
func (c *CPU) fault(cause uint32) Stop {
	if c.SR[isa.SRIVec] != 0 {
		c.trap(cause)
		return StopBudget
	}
	return StopError
}

// memOps gives each load and store opcode its access width in bytes
// and, for the signed loads, the shift that sign-extends the value.
var memOps = [256]struct{ size, ext uint8 }{
	isa.LW: {4, 0}, isa.LH: {2, 16}, isa.LHU: {2, 0}, isa.LB: {1, 24}, isa.LBU: {1, 0},
	isa.SW: {4, 0}, isa.SH: {2, 0}, isa.SB: {1, 0},
}

func boolTo(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func div32(a, b uint32) uint32 {
	if b == 0 {
		return ^uint32(0) // -1, RISC-V convention
	}
	if int32(a) == -1<<31 && int32(b) == -1 {
		return a // overflow: result is dividend
	}
	return uint32(int32(a) / int32(b))
}

func rem32(a, b uint32) uint32 {
	if b == 0 {
		return a
	}
	if int32(a) == -1<<31 && int32(b) == -1 {
		return 0
	}
	return uint32(int32(a) % int32(b))
}

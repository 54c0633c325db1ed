package iss

import (
	"math"

	"cosim/internal/isa"
)

// setReg writes a register, keeping r0 hardwired to zero.
func (c *CPU) setReg(r uint8, v uint32) {
	if r != 0 {
		c.Regs[r] = v
	}
}

// Step executes one instruction (or takes one pending trap) and returns
// the stop condition. StopBudget means "executed fine, keep going".
func (c *CPU) Step() Stop {
	if c.halted {
		return StopHalt
	}
	if c.sleeping {
		if c.PendingIRQ() == 0 {
			return StopIdle
		}
		c.sleeping = false
	}
	if c.checkIRQ() {
		return StopBudget // trap taken; handler runs on subsequent steps
	}
	if _, bp := c.breakpoints[c.PC]; bp && !c.stepOverBP {
		return StopBreak
	}
	return c.fetchExec()
}

// fetchExec fetches, decodes and executes one instruction, taking the
// predecoded fast path when the PC is covered by the cache.
func (c *CPU) fetchExec() Stop {
	if d := c.dc; d != nil && c.PC < d.limit && c.PC%isa.Word == 0 {
		e := d.entry(c.PC)
		if e.flags&dcDecoded != 0 {
			c.dcHits++
			c.stepOverBP = false
			return c.exec(e.inst)
		}
		return c.fillExec(e)
	}
	return c.fetchExecSlow()
}

// fillExec services a decode miss: fetch the word at PC, decode it into
// the cache slot, and execute it.
func (c *CPU) fillExec(e *dcEntry) Stop {
	w, err := c.load(c.PC, 4)
	if err != nil {
		return c.fault(isa.CauseBus)
	}
	inst, derr := isa.Decode(w)
	if derr != nil {
		return c.fault(isa.CauseIllegal)
	}
	c.stepOverBP = false
	if !c.busIsRAM(c.PC) {
		// Device-mapped code is never cached: the device may return a
		// different word on the next fetch.
		return c.exec(inst)
	}
	c.dcMisses++
	e.inst = inst
	e.flags |= dcDecoded
	return c.exec(inst)
}

// fetchExecSlow is the uncached engine: one bus fetch and one decode
// per step.
func (c *CPU) fetchExecSlow() Stop {
	if c.PC%isa.Word != 0 {
		return c.fault(isa.CauseAlign)
	}
	w, err := c.bus.Read(c.PC, 4)
	if err != nil {
		return c.fault(isa.CauseBus)
	}
	inst, derr := isa.Decode(w)
	if derr != nil {
		return c.fault(isa.CauseIllegal)
	}
	c.stepOverBP = false
	return c.exec(inst)
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

// store is load's write-side twin.
func (c *CPU) store(addr uint32, size int, v uint32) error {
	if b := c.sbus; b != nil && b.belowDevices(addr, size) {
		return b.ram.Write(addr, size, v)
	}
	return c.bus.Write(addr, size, v)
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

// exec performs one decoded instruction. On return, PC points at the
// next instruction to execute unless the CPU stopped.
func (c *CPU) exec(i isa.Inst) Stop {
	cost := c.cpi.Default
	next := c.PC + isa.Word

	rs1 := c.Regs[i.Rs1]
	rs2 := c.Regs[i.Rs2]
	imm := uint32(i.Imm)

	switch i.Op {
	// --- R-type ALU ---
	case isa.ADD:
		c.setReg(i.Rd, rs1+rs2)
	case isa.SUB:
		c.setReg(i.Rd, rs1-rs2)
	case isa.AND:
		c.setReg(i.Rd, rs1&rs2)
	case isa.OR:
		c.setReg(i.Rd, rs1|rs2)
	case isa.XOR:
		c.setReg(i.Rd, rs1^rs2)
	case isa.NOR:
		c.setReg(i.Rd, ^(rs1 | rs2))
	case isa.SLL:
		c.setReg(i.Rd, rs1<<(rs2&31))
	case isa.SRL:
		c.setReg(i.Rd, rs1>>(rs2&31))
	case isa.SRA:
		c.setReg(i.Rd, uint32(int32(rs1)>>(rs2&31)))
	case isa.SLT:
		c.setReg(i.Rd, boolTo(int32(rs1) < int32(rs2)))
	case isa.SLTU:
		c.setReg(i.Rd, boolTo(rs1 < rs2))
	case isa.MUL:
		cost = c.cpi.Mul
		c.setReg(i.Rd, rs1*rs2)
	case isa.MULH:
		cost = c.cpi.Mul
		c.setReg(i.Rd, uint32(uint64(int64(int32(rs1))*int64(int32(rs2)))>>32))
	case isa.DIV:
		cost = c.cpi.Div
		c.setReg(i.Rd, div32(rs1, rs2))
	case isa.DIVU:
		cost = c.cpi.Div
		if rs2 == 0 {
			c.setReg(i.Rd, ^uint32(0))
		} else {
			c.setReg(i.Rd, rs1/rs2)
		}
	case isa.REM:
		cost = c.cpi.Div
		c.setReg(i.Rd, rem32(rs1, rs2))
	case isa.REMU:
		cost = c.cpi.Div
		if rs2 == 0 {
			c.setReg(i.Rd, rs1)
		} else {
			c.setReg(i.Rd, rs1%rs2)
		}

	// --- I-type ALU ---
	case isa.ADDI:
		c.setReg(i.Rd, rs1+imm)
	case isa.ANDI:
		c.setReg(i.Rd, rs1&imm)
	case isa.ORI:
		c.setReg(i.Rd, rs1|imm)
	case isa.XORI:
		c.setReg(i.Rd, rs1^imm)
	case isa.SLTI:
		c.setReg(i.Rd, boolTo(int32(rs1) < i.Imm))
	case isa.SLTIU:
		c.setReg(i.Rd, boolTo(rs1 < imm))
	case isa.SLLI:
		c.setReg(i.Rd, rs1<<(imm&31))
	case isa.SRLI:
		c.setReg(i.Rd, rs1>>(imm&31))
	case isa.SRAI:
		c.setReg(i.Rd, uint32(int32(rs1)>>(imm&31)))
	case isa.LUI:
		c.setReg(i.Rd, imm<<16)

	// --- loads ---
	case isa.LW, isa.LH, isa.LHU, isa.LB, isa.LBU:
		cost = c.cpi.Load
		addr := rs1 + imm
		size := loadSize(i.Op)
		if addr%uint32(size) != 0 {
			return c.fault(isa.CauseAlign)
		}
		v, err := c.load(addr, size)
		if err != nil {
			return c.fault(isa.CauseBus)
		}
		switch i.Op {
		case isa.LH:
			v = uint32(int32(int16(v)))
		case isa.LB:
			v = uint32(int32(int8(v)))
		}
		c.setReg(i.Rd, v)

	// --- stores ---
	case isa.SW, isa.SH, isa.SB:
		cost = c.cpi.Store
		addr := rs1 + imm
		size := storeSize(i.Op)
		if addr%uint32(size) != 0 {
			return c.fault(isa.CauseAlign)
		}
		if err := c.store(addr, size, c.Regs[i.Rd]); err != nil {
			return c.fault(isa.CauseBus)
		}
		if d := c.dc; d != nil && addr < d.limit {
			// Self-modifying code: drop any predecoded entry the store
			// clobbers.
			c.dcInvalidations += d.invalidate(addr, uint32(size))
		}
		if c.yield {
			c.yield = false
			if c.profile != nil {
				c.profile.record(c.PC, cost)
			}
			c.PC = next
			c.cycles += cost
			c.icount++
			return StopYield
		}
		if len(c.watchpoints) != 0 && c.watchTriggered(addr, size) {
			if c.profile != nil {
				c.profile.record(c.PC, cost)
			}
			c.PC = next
			c.cycles += cost
			c.icount++
			return StopWatch
		}

	// --- branches ---
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU:
		// For branches the encoder stores ra in the Rd field and rb in Rs1.
		a, b := c.Regs[i.Rd], c.Regs[i.Rs1]
		var taken bool
		switch i.Op {
		case isa.BEQ:
			taken = a == b
		case isa.BNE:
			taken = a != b
		case isa.BLT:
			taken = int32(a) < int32(b)
		case isa.BGE:
			taken = int32(a) >= int32(b)
		case isa.BLTU:
			taken = a < b
		case isa.BGEU:
			taken = a >= b
		}
		if taken {
			cost = c.cpi.Branch
			next = c.PC + uint32(i.Imm)*isa.Word
		}

	// --- jumps ---
	case isa.JAL:
		cost = c.cpi.Branch
		c.setReg(i.Rd, c.PC+isa.Word)
		next = c.PC + uint32(i.Imm)*isa.Word
	case isa.JALR:
		cost = c.cpi.Branch
		target := (rs1 + imm) &^ 3
		c.setReg(i.Rd, c.PC+isa.Word)
		next = target

	// --- system ---
	case isa.ECALL:
		if c.SR[isa.SRIVec] != 0 {
			if c.profile != nil {
				c.profile.record(c.PC, cost)
			}
			c.PC = next
			c.cycles += cost
			c.icount++
			c.trap(isa.CauseECall)
			return StopBudget
		}
		if c.Syscall != nil && c.Syscall(c) {
			break // handled by host; fall through to advance PC
		}
		return StopEcall
	case isa.EBREAK:
		// PC stays at the EBREAK address: GDB expects the stop address
		// to be the planted breakpoint.
		return StopEBreak
	case isa.ERET:
		if c.profile != nil {
			c.profile.record(c.PC, cost)
		}
		c.icount++
		c.cycles += cost
		c.eret()
		return StopBudget
	case isa.WFI:
		if c.profile != nil {
			c.profile.record(c.PC, cost)
		}
		c.PC = next
		c.cycles += cost
		c.icount++
		if c.PendingIRQ() == 0 {
			c.sleeping = true
			return StopIdle
		}
		return StopBudget
	case isa.HALT:
		if c.profile != nil {
			c.profile.record(c.PC, cost)
		}
		c.halted = true
		c.PC = next
		c.icount++
		return StopHalt
	case isa.MFSR:
		c.refreshCycleSRs()
		c.setReg(i.Rd, c.SR[i.Imm&(isa.NumSRegs-1)])
	case isa.MTSR:
		sr := int(i.Imm) & (isa.NumSRegs - 1)
		if sr != isa.SRCycle && sr != isa.SRCycleH {
			c.SR[sr] = rs1
		}

	default:
		return c.fault(isa.CauseIllegal)
	}

	if c.profile != nil {
		c.profile.record(c.PC, cost)
	}
	c.PC = next
	c.cycles += cost
	c.icount++
	return StopBudget
}

// refreshCycleSRs mirrors the cycle counter into the SR file.
func (c *CPU) refreshCycleSRs() {
	c.SR[isa.SRCycle] = uint32(c.cycles)
	c.SR[isa.SRCycleH] = uint32(c.cycles >> 32)
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
// On the cached engine the halted/sleeping/IRQ checks are hoisted out
// of the per-instruction path and re-run every checkInterval
// instructions or whenever the inner loop exits on a stop; breakpoints
// still hit exactly (they are folded into the cache entries).
func (c *CPU) Run(budget uint64) (Stop, uint64) { return c.RunLimit(budget, math.MaxUint64) }

// RunLimit is Run that also returns StopBudget once the cycle count
// reaches limit: the instruction that crosses it is the last to run.
func (c *CPU) RunLimit(budget, limit uint64) (Stop, uint64) {
	start := c.icount
	if c.dc == nil {
		return c.runUncached(budget, limit, start)
	}
	for steps := uint64(0); steps < budget && c.cycles < limit; {
		// Hoisted slow checks: Step's prologue, batched.
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
		batch := budget - steps
		if batch > checkInterval {
			batch = checkInterval
		}
		stop, n := c.runBatch(batch, limit)
		steps += n
		if stop != StopBudget {
			if stop == StopBreak {
				c.stepOverBP = true
			}
			return stop, c.icount - start
		}
	}
	return StopBudget, c.icount - start
}

// runBatch is the predecoded inner loop: up to n instructions with no
// interrupt/halt re-checks (the caller has just done them; exec-side
// stops still exit immediately), ending early once the cycle count
// reaches limit. Returns the stop and steps consumed.
func (c *CPU) runBatch(n, limit uint64) (Stop, uint64) {
	d := c.dc
	for i := uint64(0); i < n; i++ {
		pc := c.PC
		if pc < d.limit && pc%isa.Word == 0 {
			if e := d.entry(pc); e.flags&dcDecoded != 0 {
				if e.flags&dcBP != 0 && !c.stepOverBP {
					return StopBreak, i
				}
				c.dcHits++
				c.stepOverBP = false
				if s := c.exec(e.inst); s != StopBudget {
					return s, i + 1
				}
				switch e.inst.Op {
				case isa.MTSR, isa.ERET, isa.WFI:
					// Interrupt deliverability may have changed (IE
					// toggled, trap return, wake with pending line):
					// hand control back to the hoisted checks now
					// rather than at the batch boundary.
					return StopBudget, i + 1
				}
				if c.cycles >= limit {
					return StopBudget, i + 1
				}
				continue
			}
		}
		// Decode miss or uncacheable PC: full per-step semantics minus
		// the hoisted prologue, then back to the outer checks — for an
		// unknown opcode the batch must not outrun an IE change.
		if _, bp := c.breakpoints[pc]; bp && !c.stepOverBP {
			return StopBreak, i
		}
		return c.fetchExec(), i + 1
	}
	return StopBudget, n
}

// runUncached is the legacy engine's run loop: a full Step — with
// per-instruction interrupt and breakpoint checks — every iteration.
func (c *CPU) runUncached(budget, limit, start uint64) (Stop, uint64) {
	// Each Step is at most one instruction; trap entries consume a step
	// without retiring an instruction, which bounds the loop regardless.
	for steps := uint64(0); steps < budget && c.cycles < limit; steps++ {
		s := c.Step()
		switch s {
		case StopBudget:
			continue
		case StopBreak:
			c.stepOverBP = true
			return s, c.icount - start
		default:
			return s, c.icount - start
		}
	}
	return StopBudget, c.icount - start
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

func loadSize(op isa.Opcode) int {
	switch op {
	case isa.LW:
		return 4
	case isa.LH, isa.LHU:
		return 2
	default:
		return 1
	}
}

func storeSize(op isa.Opcode) int {
	switch op {
	case isa.SW:
		return 4
	case isa.SH:
		return 2
	default:
		return 1
	}
}

package iss

import (
	"fmt"

	"cosim/internal/isa"
)

// Stop describes why CPU.Run returned.
type Stop int

const (
	// StopBudget: the instruction budget was exhausted; the CPU is
	// still runnable.
	StopBudget Stop = iota
	// StopBreak: the CPU is stopped at a hardware breakpoint (PC is the
	// breakpoint address, the instruction has not executed).
	StopBreak
	// StopEBreak: an EBREAK instruction was reached (PC is the EBREAK
	// address) — the stop reason seen for GDB software breakpoints.
	StopEBreak
	// StopWatch: a write watchpoint fired (the store has executed).
	StopWatch
	// StopHalt: a HALT instruction executed; the CPU is finished.
	StopHalt
	// StopEcall: an ECALL executed with no trap vector and no host
	// syscall handler.
	StopEcall
	// StopIdle: a WFI executed with no pending enabled interrupt; the
	// CPU sleeps until an IRQ is raised.
	StopIdle
	// StopError: an unrecoverable fault (bus error or illegal
	// instruction with no trap vector installed).
	StopError
	// StopYield: a device the last instruction stored to asked for
	// control back (Yield); the store has executed.
	StopYield
)

// String implements fmt.Stringer.
func (s Stop) String() string {
	switch s {
	case StopBudget:
		return "budget"
	case StopBreak:
		return "breakpoint"
	case StopEBreak:
		return "ebreak"
	case StopWatch:
		return "watchpoint"
	case StopHalt:
		return "halt"
	case StopEcall:
		return "ecall"
	case StopIdle:
		return "idle"
	case StopError:
		return "error"
	case StopYield:
		return "yield"
	}
	return fmt.Sprintf("stop(%d)", int(s))
}

// CPIModel assigns a cycle cost per instruction class, making the ISS
// "cycle-based" in the sense used by the paper.
type CPIModel struct {
	Default uint64 // simple ALU, jumps
	Load    uint64
	Store   uint64
	Mul     uint64
	Div     uint64
	Branch  uint64 // taken branch penalty included
	Trap    uint64 // trap/interrupt entry
}

// DefaultCPI is a plausible small-core cost model.
var DefaultCPI = CPIModel{Default: 1, Load: 2, Store: 2, Mul: 3, Div: 16, Branch: 2, Trap: 4}

// SyscallHandler services ECALL instructions in bare-metal (hosted)
// mode, when no trap vector is installed. It runs with PC at the
// instruction after the ECALL and may modify CPU state, PC included:
// execution resumes at the PC it leaves. Returning false stops the CPU
// with StopEcall, its PC at the ECALL.
type SyscallHandler func(c *CPU) bool

// CPU is one FV32 processor core.
type CPU struct {
	Regs [isa.NumRegs]uint32
	PC   uint32
	SR   [isa.NumSRegs]uint32

	bus    Bus
	sbus   *SystemBus // bus, when it is one: RAM accesses below its devices skip the interface
	cpi    CPIModel
	cycles uint64
	icount uint64

	halted   bool
	sleeping bool // in WFI
	yield    bool // a device asked Run to return after the current store

	irqPending uint32 // bitmask of raised IRQ lines
	irqEnabled uint32 // mask of enabled lines (set via PIC or directly)

	breakpoints map[uint32]struct{}
	watchpoints map[uint32]uint32 // addr -> length
	// stepOverBP executes one instruction at stepOverPC ignoring its
	// breakpoint. A PC moved elsewhere before it runs (a debugger's
	// resume address, a register write) stops at a breakpoint there.
	stepOverBP bool
	stepOverPC uint32

	Syscall SyscallHandler

	profile *Profile

	lastWatchAddr uint32

	// Decode-once execution (decode_cache.go). An instruction the
	// slow path decoded runs from scratch.
	dc              decodeCache
	scratch         dcEntry
	dcHits          uint64
	dcMisses        uint64
	dcInvalidations uint64
}

// New creates a CPU attached to the bus, with all interrupt lines
// enabled and the default CPI model. When the bus exposes a RAM, the
// decode cache covers it; on any other Bus the cache could not see
// memory change, so it covers nothing and every fetch reads the bus.
func New(bus Bus) *CPU {
	c := &CPU{
		bus:         bus,
		cpi:         DefaultCPI,
		irqEnabled:  0xff,
		breakpoints: make(map[uint32]struct{}),
		watchpoints: make(map[uint32]uint32),
	}
	switch b := bus.(type) {
	case *SystemBus:
		c.sbus = b
		c.dc = newDecodeCache(b.ram.Size())
	case *RAM:
		c.dc = newDecodeCache(b.Size())
	}
	return c
}

// DecodeCacheStats returns the fast-path hit, decode-miss and
// invalidated-entry totals.
func (c *CPU) DecodeCacheStats() (hits, misses, invalidations uint64) {
	return c.dcHits, c.dcMisses, c.dcInvalidations
}

// InvalidateDecode drops predecoded entries overlapping [addr, addr+n).
// Writers that mutate guest memory without going through CPU stores —
// the GDB stub's M/X writes, DMA-style device
// models — must call this to keep the cache coherent. CPU stores
// invalidate automatically.
func (c *CPU) InvalidateDecode(addr, n uint32) {
	c.dcInvalidations += c.dc.invalidate(addr, n)
}

// Bus returns the CPU's memory bus.
func (c *CPU) Bus() Bus { return c.bus }

// Cycles returns the consumed cycle count.
func (c *CPU) Cycles() uint64 { return c.cycles }

// Instructions returns the executed instruction count.
func (c *CPU) Instructions() uint64 { return c.icount }

// Yield asks Run to return StopYield once the store that is executing
// completes. Devices call it from their Write, on the CPU's goroutine.
func (c *CPU) Yield() { c.yield = true }

// Sleep lets n cycles pass while the CPU idles in WFI.
func (c *CPU) Sleep(n uint64) { c.cycles += n }

// Halted reports whether a HALT instruction has executed.
func (c *CPU) Halted() bool { return c.halted }

// Sleeping reports whether the CPU is parked in WFI.
func (c *CPU) Sleeping() bool { return c.sleeping }

// Reset returns the CPU to its power-on state, keeping breakpoints.
// Predecoded entries are dropped so a freshly loaded image is never
// executed through a stale cache. Reset clears every raised interrupt
// line, so call it before any device can assert one: a level-driven
// device re-drives its line only when its level changes.
func (c *CPU) Reset(pc uint32) {
	c.Regs = [isa.NumRegs]uint32{}
	c.SR = [isa.NumSRegs]uint32{}
	c.PC = pc
	c.cycles, c.icount = 0, 0
	c.halted, c.sleeping, c.stepOverBP, c.yield = false, false, false, false
	c.irqPending = 0
	c.dc.flush()
}

// --- breakpoints / watchpoints -------------------------------------------

// AddBreakpoint arms a hardware breakpoint at addr. Effective
// immediately, including between Run calls: a breakpoint the decode
// cache covers is patched into its entry's flags, so the loop tests a
// flag instead of a map.
func (c *CPU) AddBreakpoint(addr uint32) {
	c.breakpoints[addr] = struct{}{}
	if c.dc.covers(addr) {
		c.dc.entry(addr).flags |= dcBP
	}
}

// HasBreakpoint reports whether a breakpoint is armed at addr.
func (c *CPU) HasBreakpoint(addr uint32) bool {
	_, ok := c.breakpoints[addr]
	return ok
}

// AddWatchpoint arms a write watchpoint on [addr, addr+length).
func (c *CPU) AddWatchpoint(addr, length uint32) { c.watchpoints[addr] = length }

// WatchHit returns the address whose watchpoint fired last.
func (c *CPU) WatchHit() uint32 { return c.lastWatchAddr }

// StepOverBreakpoint arms the CPU to execute the instruction at the
// current PC even if a hardware breakpoint is set there; used by
// debuggers when single-stepping off a stop.
func (c *CPU) StepOverBreakpoint() { c.stepOverBP, c.stepOverPC = true, c.PC }

// watchTriggered checks a store against the watchpoint set.
func (c *CPU) watchTriggered(addr uint32, size int) bool {
	for wa, wl := range c.watchpoints {
		if addr < wa+wl && wa < addr+uint32(size) {
			c.lastWatchAddr = wa
			return true
		}
	}
	return false
}

// --- interrupts -----------------------------------------------------------

// RaiseIRQ asserts external interrupt line n. Like every other CPU
// method it runs on the goroutine that runs the CPU: devices raise
// lines from their register writes, and a Driver-Kernel guest's device
// from Receive, between runs.
func (c *CPU) RaiseIRQ(n int) {
	if n >= 0 && n < isa.NumIRQ {
		c.irqPending |= 1 << uint(n)
	}
}

// ClearIRQ deasserts line n (level-triggered model: devices clear on ack).
func (c *CPU) ClearIRQ(n int) {
	if n >= 0 && n < isa.NumIRQ {
		c.irqPending &^= 1 << uint(n)
	}
}

// PendingIRQ returns the pending mask (enabled lines only).
func (c *CPU) PendingIRQ() uint32 { return c.irqPending & c.irqEnabled }

// SetIRQMask sets the enabled interrupt line mask.
func (c *CPU) SetIRQMask(mask uint32) { c.irqEnabled = mask }

// interruptsOn reports whether the global interrupt-enable bit is set.
func (c *CPU) interruptsOn() bool { return c.SR[isa.SRStatus]&isa.StatusIE != 0 }

// trap enters the trap vector with the given cause at the current PC,
// which EPC keeps for ERET to resume at.
func (c *CPU) trap(cause uint32) {
	c.PC = c.enterTrap(cause, c.PC)
	c.cycles += c.cpi.Trap
}

// enterTrap saves IE into PIE, disables interrupts, records the cause
// and epc, wakes the CPU, and returns the trap vector. The caller
// jumps there and charges cpi.Trap. A pending step-over belonged to
// the instruction at epc, which has not run (an interrupt or a fetch
// fault) or has retired (an ECALL): it is dropped, so a breakpoint on
// the vector's first instruction stops the CPU.
func (c *CPU) enterTrap(cause, epc uint32) uint32 {
	c.stepOverBP = false
	st := c.SR[isa.SRStatus]
	pie := (st & isa.StatusIE) << 1 // IE -> PIE position
	c.SR[isa.SRStatus] = (st &^ (isa.StatusIE | isa.StatusPIE)) | pie
	c.SR[isa.SREPC] = epc
	c.SR[isa.SRCause] = cause
	c.sleeping = false
	return c.SR[isa.SRIVec]
}

// checkIRQ takes the highest-priority pending enabled interrupt if the
// global enable bit allows it. Returns true if a trap was taken.
func (c *CPU) checkIRQ() bool {
	if !c.interruptsOn() {
		return false
	}
	pend := c.PendingIRQ()
	if pend == 0 {
		return false
	}
	for n := 0; n < isa.NumIRQ; n++ {
		if pend&(1<<uint(n)) != 0 {
			c.trap(uint32(isa.CauseIRQBase + n))
			return true
		}
	}
	return false
}

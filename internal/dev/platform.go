package dev

import (
	"io"
	"math"

	"cosim/internal/iss"
)

// Standard memory map of the FV32 platform.
const (
	PICBase     = 0xf0000000
	TimerBase   = 0xf0001000
	ConsoleBase = 0xf0002000
	CosimBase   = 0xf0003000
	MailboxBase = 0xf0004000
)

// DefaultRAMSize is the platform's default memory size.
const DefaultRAMSize = 4 << 20

// TickQuantum is the number of instructions executed between device
// ticks; it bounds timer-interrupt jitter.
const TickQuantum = 64

// Platform bundles a CPU with the standard peripheral set at the
// standard addresses — the "synthetic target" the RTOS runs on.
type Platform struct {
	// ID is the platform's instance id in a multi-processor SoC (0 for
	// a single-CPU system); set it with SetInstance.
	ID int

	CPU     *iss.CPU
	RAM     *iss.RAM
	Bus     *iss.SystemBus
	PIC     *PIC
	Timer   *Timer
	Console *Console
	Cosim   *CosimDev
	Mailbox *Mailbox // optional, mapped by AttachMailbox
}

// NewPlatform builds a platform with the given RAM size (0 = default)
// and optional console mirror writer.
func NewPlatform(ramSize uint32, consoleMirror io.Writer) *Platform {
	if ramSize == 0 {
		ramSize = DefaultRAMSize
	}
	ram := iss.NewRAM(ramSize)
	bus := iss.NewSystemBus(ram)
	cpu := iss.New(bus)
	p := &Platform{
		CPU: cpu, RAM: ram, Bus: bus,
		Console: NewConsole(consoleMirror),
	}
	p.PIC = NewPIC(cpu, 0)
	p.Timer = NewTimer(p.PIC, TimerLine)
	p.Cosim = NewCosimDev(p.PIC, CosimLine)
	p.Cosim.yield = cpu.Yield
	mustMap(bus, PICBase, p.PIC)
	mustMap(bus, TimerBase, p.Timer)
	mustMap(bus, ConsoleBase, p.Console)
	mustMap(bus, CosimBase, p.Cosim)
	return p
}

func mustMap(bus *iss.SystemBus, base uint32, d iss.Device) {
	if err := bus.Map(base, d); err != nil {
		panic(err)
	}
}

// SetInstance labels the platform (and its co-simulation bridge
// device) with its CPU index in a multi-processor SoC, so errors and
// diagnostics name the guest they came from.
func (p *Platform) SetInstance(n int) {
	p.ID = n
	p.Cosim.SetInstance(n)
}

// AttachMailbox maps a mailbox endpoint at the standard base.
func (p *Platform) AttachMailbox(m *Mailbox) {
	p.Mailbox = m
	mustMap(p.Bus, MailboxBase, m)
}

// GrantDMIWindow implements DMIGranter by forwarding to the bridge
// device: protocol-port windows live on the co-simulation bridge, the
// platform is the kernel-facing grant surface.
func (p *Platform) GrantDMIWindow(port string, w *Window) {
	p.Cosim.GrantDMIWindow(port, w)
}

// RevokeDMIWindows implements DMIGranter.
func (p *Platform) RevokeDMIWindows() {
	p.Cosim.RevokeDMIWindows()
}

// Run executes up to budget instructions, ticking cycle-driven devices
// every TickQuantum instructions so timer interrupts track simulated
// time. It returns the CPU's stop reason and instructions executed. A
// WFI with the timer armed sleeps to the timer's match; one with
// nothing to wake it returns StopIdle.
func (p *Platform) Run(budget uint64) (iss.Stop, uint64) {
	return p.run(budget, math.MaxUint64)
}

// RunTo runs the guest until its cycle count reaches limit, and returns
// StopKeepGoing when it does. A WFI with nothing pending sleeps to the
// limit, or to the timer's match if that comes first, so idle time
// costs guest cycles as busy time does. It returns early on a flush of
// the co-simulation device (iss.StopYield), a halt or a fault.
func (p *Platform) RunTo(limit uint64) iss.Stop {
	stop, _ := p.run(math.MaxUint64, limit)
	return stop
}

// run executes up to budget instructions or up to limit cycles.
func (p *Platform) run(budget, limit uint64) (iss.Stop, uint64) {
	var total uint64
	for total < budget && p.CPU.Cycles() < limit {
		before := p.CPU.Cycles()
		stop, n := p.CPU.RunLimit(min(TickQuantum, budget-total), limit)
		total += n
		p.Timer.Advance(p.CPU.Cycles() - before)
		switch stop {
		case StopKeepGoing:
			continue
		case iss.StopIdle:
			// WFI: simulated time passes while the core sleeps, up to
			// the limit or to the timer interrupt that wakes it.
			sleep := limit - p.CPU.Cycles()
			if t := p.Timer; t.ctrl&TimerCtrlEnable != 0 && !t.irqOn && t.compare > t.count {
				sleep = min(sleep, t.compare-t.count)
			} else if limit == math.MaxUint64 {
				return stop, total
			}
			p.CPU.Sleep(sleep)
			p.Timer.Advance(sleep)
			continue
		}
		return stop, total
	}
	return StopKeepGoing, total
}

// Cycles returns the guest's cycle count.
func (p *Platform) Cycles() uint64 { return p.CPU.Cycles() }

// Sent returns how many bytes the guest has flushed to its data socket.
func (p *Platform) Sent() uint64 { return p.Cosim.Sent() }

// Receive takes the bytes the kernel sent off the guest's sockets (see
// CosimDev.Receive).
func (p *Platform) Receive(data, irq uint64) error { return p.Cosim.Receive(data, irq) }

// StopKeepGoing aliases iss.StopBudget for readability at this layer.
const StopKeepGoing = iss.StopBudget

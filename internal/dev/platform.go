package dev

import (
	"io"
	"sync"
	"sync/atomic"

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

// InlineBudget is how many instructions a CosimDev pump runs a parked
// guest for after it delivers a frame (see Platform.RunGuest). The
// router guest takes under 256 instructions from a doorbell to its
// cosim_read request, and from a DATA reply through the checksum and
// its cosim_write back to WFI 512–768 at the default 4-word payload
// and under 3 072 at the 60-word maximum, so every frame of a packet
// is served in one inline run. A guest still busy after 4 096
// instructions (50–60 µs at 12–15 ns per instruction) goes back to its
// runner, and the pump to its socket.
const InlineBudget = 4096

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

	// runMu is held by whichever goroutine executes the guest: its
	// runner for each budget (RunGuest), or a CosimDev pump for an
	// inline run (runInline).
	runMu sync.Mutex
	// parked is set while the runner waits for a wake with the guest
	// in WFI; only then may a pump run the guest. Guarded by runMu.
	parked bool
	last   atomic.Int32 // iss.Stop of the latest run, by the runner or a pump
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
	p.Cosim.deliver = p.runInline
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
// time. It returns the CPU's stop reason and instructions executed.
func (p *Platform) Run(budget uint64) (iss.Stop, uint64) {
	var total uint64
	for total < budget {
		chunk := uint64(TickQuantum)
		if rest := budget - total; rest < chunk {
			chunk = rest
		}
		before := p.CPU.Cycles()
		stop, n := p.CPU.Run(chunk)
		total += n
		p.Timer.Advance(p.CPU.Cycles() - before)
		if stop == StopKeepGoing {
			continue
		}
		if stop == iss.StopIdle {
			// WFI: simulated time would pass while the core sleeps; let
			// the timer keep running so its interrupt can wake the CPU.
			if p.Timer.ctrl&TimerCtrlEnable != 0 && !p.Timer.irqOn && p.Timer.compare > p.Timer.count {
				p.Timer.Advance(p.Timer.compare - p.Timer.count)
				continue
			}
		}
		return stop, total
	}
	return StopKeepGoing, total
}

// RunGuest runs the guest for up to budget instructions under the run
// lock on behalf of its runner, the one goroutine that owns it, and
// returns the stop. A StopIdle parks the guest: until the next RunGuest
// or Unpark, a CosimDev pump that delivers a frame runs the guest
// itself (runInline), so the frame does not wait for the runner's
// wake.
func (p *Platform) RunGuest(budget uint64) iss.Stop {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	return p.runLocked(budget)
}

// Unpark ends inline runs: once it returns, no pump is running the
// guest and none will until the next RunGuest parks it. A runner calls
// it as it exits, so its owner may read the CPU afterwards.
func (p *Platform) Unpark() {
	p.runMu.Lock()
	p.parked = false
	p.runMu.Unlock()
}

// LastStop returns the stop of the latest RunGuest or inline run.
func (p *Platform) LastStop() iss.Stop { return iss.Stop(p.last.Load()) }

// runInline runs a parked guest on the calling CosimDev pump for up to
// InlineBudget instructions, right after the pump delivered a frame.
// If the runner holds the run lock, the guest is not parked and the
// runner sees the frame itself. A guest that ends the run back in WFI
// stays parked. One still busy, or stopped for good, is the runner's
// again: the interrupt that woke the guest also woke the runner, which
// takes the run lock once the pump lets go and runs on from there (a
// halt stays a halt, so its next run returns it again).
func (p *Platform) runInline() {
	if !p.runMu.TryLock() {
		return
	}
	if p.parked {
		p.runLocked(InlineBudget)
	}
	p.runMu.Unlock()
}

// runLocked runs the guest for up to budget instructions; callers hold
// runMu.
func (p *Platform) runLocked(budget uint64) iss.Stop {
	stop, _ := p.Run(budget)
	p.parked = stop == iss.StopIdle
	p.last.Store(int32(stop))
	return stop
}

// StopKeepGoing aliases iss.StopBudget for readability at this layer.
const StopKeepGoing = iss.StopBudget

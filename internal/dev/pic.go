// Package dev provides memory-mapped device models for the FV32
// platform: an interrupt controller (PIC), a cycle timer, a debug
// console, a mailbox for inter-processor communication, and CosimDev —
// the ISS-side bridge device through which the Driver-Kernel
// co-simulation scheme exchanges messages with the SystemC kernel.
//
// Ownership: a Platform, its devices and the DMI windows granted to it
// belong to the one goroutine that runs the platform at a time, and
// nothing in this package locks against another. Under Driver-Kernel
// that is the simulation kernel's goroutine, which runs each guest in
// its horizon hook and grants, mirrors and folds the windows between
// runs. Under a GDB stub it is the goroutine that serves the stub:
// Serve's, or over the ring the kernel's, which runs the stub inside
// its reads of the link. The Mailbox is the one
// device two platforms share, and it keeps its own mutex.
package dev

import "fmt"

// Interrupt line assignments on the platform PIC.
const (
	TimerLine   = 0
	CosimLine   = 1
	MailboxLine = 2
)

// IRQSink abstracts the CPU interrupt pin the PIC drives
// (satisfied by *iss.CPU).
type IRQSink interface {
	RaiseIRQ(n int)
	ClearIRQ(n int)
}

// PIC register offsets.
const (
	PICPending = 0x00 // RO: pending line mask
	PICEnable  = 0x04 // RW: per-line enable mask
	PICAck     = 0x08 // WO: write mask to clear pending lines
	PICRaise   = 0x0c // WO: software-assert lines (tests, IPIs)
	PICSize    = 0x10
)

// PIC is a simple interrupt controller aggregating up to 32 input lines
// into a single CPU interrupt pin. Device inputs are level-sensitive
// (Assert holds the line until Deassert); software can additionally
// latch lines through PICRaise. PICAck clears only the latch — a level
// input stays pending until its device deasserts, so interrupts cannot
// be lost by an early acknowledge.
type PIC struct {
	levels  uint32 // device-driven level inputs
	latch   uint32 // software-raised latched bits
	enable  uint32
	sink    IRQSink
	cpuLine int
}

// NewPIC creates a PIC driving the sink's given CPU interrupt line. All
// input lines start enabled.
func NewPIC(sink IRQSink, cpuLine int) *PIC {
	return &PIC{enable: 0xffffffff, sink: sink, cpuLine: cpuLine}
}

// Name implements iss.Device.
func (p *PIC) Name() string { return "pic" }

// Size implements iss.Device.
func (p *PIC) Size() uint32 { return PICSize }

// Assert raises input line n (level).
func (p *PIC) Assert(n int) {
	p.levels |= 1 << uint(n)
	p.refresh()
}

// Deassert lowers input line n.
func (p *PIC) Deassert(n int) {
	p.levels &^= 1 << uint(n)
	p.refresh()
}

// Pending returns the current pending mask (levels plus latch).
func (p *PIC) Pending() uint32 { return p.levels | p.latch }

// refresh drives the CPU pin.
func (p *PIC) refresh() {
	if (p.levels|p.latch)&p.enable != 0 {
		p.sink.RaiseIRQ(p.cpuLine)
	} else {
		p.sink.ClearIRQ(p.cpuLine)
	}
}

// Read implements iss.Device.
func (p *PIC) Read(off uint32, size int) (uint32, error) {
	switch off {
	case PICPending:
		return p.levels | p.latch, nil
	case PICEnable:
		return p.enable, nil
	default:
		return 0, fmt.Errorf("pic: read of write-only/unknown register %#x", off)
	}
}

// Write implements iss.Device.
func (p *PIC) Write(off uint32, size int, v uint32) error {
	switch off {
	case PICEnable:
		p.enable = v
	case PICAck:
		p.latch &^= v
	case PICRaise:
		p.latch |= v
	default:
		return fmt.Errorf("pic: write to read-only/unknown register %#x", off)
	}
	p.refresh()
	return nil
}

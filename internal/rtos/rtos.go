// Package rtos provides μKOS, a small RTOS for the FV32 platform
// written in FV32 assembly, standing in for eCos in the paper's
// Driver-Kernel co-simulation scheme. It offers boot, preemptive
// round-robin threading off the platform timer, trap/interrupt dispatch
// with registrable ISRs, console output, and a co-simulation device
// driver that speaks the paper's READ/WRITE socket message format
// through the CosimDev bridge device.
//
// Guest applications are additional assembly sources defining `main`
// (and optionally extra threads); Build links them with the kernel and
// driver into a loadable image.
package rtos

import (
	_ "embed"
	"sync"

	"cosim/internal/asm"
	"cosim/internal/dev"
	"cosim/internal/iss"
)

//go:embed guest/kernel.s
var kernelSrc string

//go:embed guest/driver.s
var driverSrc string

// Reserved co-simulation interrupt ids (mirrors driver.s).
const (
	IntNone      = 0xffffffff
	IntDataReady = 0xfffffff0
)

// KernelLines returns the source line count of the kernel+driver, used
// by the harness to report the paper's code-size comparison (§5).
func KernelLines() (kernel, driver int) {
	return countLines(kernelSrc), countLines(driverSrc)
}

// DriverSource returns the driver source text (for LoC accounting).
func DriverSource() string { return driverSrc }

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}

// Sources returns the kernel and driver sources, in link order.
func Sources() []asm.Source {
	return []asm.Source{
		{Name: "kernel.s", Text: kernelSrc},
		{Name: "driver.s", Text: driverSrc},
	}
}

// Build assembles the kernel, the co-simulation driver and the given
// application sources into one image. The application must define
// `main`.
func Build(app ...asm.Source) (*asm.Image, error) {
	srcs := append(Sources(), app...)
	return asm.Assemble(asm.Options{TextBase: 0, DataBase: 0x00200000}, srcs...)
}

// Runner drives a platform in a host goroutine: it keeps executing
// until the guest halts or Stop is called. When the CPU parks in WFI
// with nothing pending, the runner blocks until an interrupt is raised
// (every interrupt source goes through CPU.RaiseIRQ, and the platform
// fast-forwards its own timer in WFI) or until Stop. While it is
// parked, a CosimDev pump that delivers a frame runs the guest itself
// for up to dev.InlineBudget instructions (Platform.RunGuest), and
// hands it back to the runner if it is still busy after them or has
// stopped for good.
type Runner struct {
	P *dev.Platform
	// ID is the guest's CPU index in a multi-processor SoC, inherited
	// from the platform's instance id — it identifies which RTOS
	// instance this runner drives in logs and tests.
	ID int

	quit     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// runnerQuantum is the instruction budget per inner run call.
const runnerQuantum = 100_000

// NewRunner creates a runner for the platform.
func NewRunner(p *dev.Platform) *Runner {
	return &Runner{P: p, ID: p.ID, quit: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the run loop in its own goroutine.
func (r *Runner) Start() {
	go func() {
		defer close(r.done)
		defer r.P.Unpark() // waits out an inline run in flight
		wake := r.P.CPU.WakeChan()
		for {
			select {
			case <-r.quit:
				return
			default:
			}
			switch r.P.RunGuest(runnerQuantum) {
			case iss.StopBudget:
				// keep going
			case iss.StopIdle:
				// Parked in WFI: a raise after the run returned is not
				// lost, since the wake channel buffers one signal.
				select {
				case <-wake:
				case <-r.quit:
					return
				}
			default:
				return // halt, error, ...
			}
		}
	}()
}

// Stop requests termination and waits for the loop to exit and for
// any inline run of the guest to end; afterwards no goroutine runs the
// guest. It may be called more than once. Close the platform's
// co-simulation channels first when a guest may be blocked writing to
// one that nothing reads.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.quit) })
	<-r.done
}

// Wait blocks until the guest halts on its own, whether the runner or
// an inline run reached the halt.
func (r *Runner) Wait() iss.Stop {
	<-r.done
	return r.LastStop()
}

// LastStop returns the most recent stop reason, of the runner's own
// runs and of inline runs alike.
func (r *Runner) LastStop() iss.Stop { return r.P.LastStop() }

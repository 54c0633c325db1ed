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

	"cosim/internal/asm"
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

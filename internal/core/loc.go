package core

import (
	_ "embed"
	"strings"
)

//go:embed gdbkernel.go
var gdbKernelSrc string

//go:embed driverkernel.go
var driverKernelSrc string

// SchemeLines returns the source line counts of the GDB-Kernel and
// Driver-Kernel scheme files: the kernel-side half of the paper's §5
// code-size comparison.
func SchemeLines() (gdbKernel, driverKernel int) {
	return strings.Count(gdbKernelSrc, "\n"), strings.Count(driverKernelSrc, "\n")
}

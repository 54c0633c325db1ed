package router

import (
	_ "embed"
	"sync"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/rtos"
)

//go:embed guest/csum.s
var csumSrc string

//go:embed guest/app_gdb.s
var appGDBSrc string

//go:embed guest/app_drv.s
var appDrvSrc string

// PktPortName and CsumPortName are the ISS port names of the case
// study: the router pushes packets out of "pkt" and receives checksum
// results on "csum".
const (
	PktPortName  = "pkt"
	CsumPortName = "csum"
)

// IntNewPacket is the doorbell interrupt id used by the Driver-Kernel
// scheme (must match INT_NEW_PKT in app_drv.s).
const IntNewPacket = 1

// GDBGuestSources returns the bare-metal guest application for the GDB
// schemes.
func GDBGuestSources() []asm.Source {
	return []asm.Source{
		{Name: "app_gdb.s", Text: appGDBSrc},
		{Name: "csum.s", Text: csumSrc},
	}
}

// GDBGuest returns the assembled bare-metal checksum application. The
// sources are embedded, so the image is assembled once per process and
// every caller shares it: the image is read-only, and a run copies it
// into its own guest RAM with LoadInto.
func GDBGuest() (*asm.Image, error) { return gdbGuest() }

var gdbGuest = sync.OnceValues(func() (*asm.Image, error) {
	return asm.Assemble(asm.Options{DataBase: 0x10000}, GDBGuestSources()...)
})

// GDBBindings returns the variable/port bindings of §3.2 for the
// bare-metal guest.
func GDBBindings() []core.VarBinding { return GDBBindingsPrefixed("") }

// GDBBindingsPrefixed returns the bindings with a port-name prefix, so
// several CPUs can attach to one kernel (multi-processor SoC).
func GDBBindingsPrefixed(prefix string) []core.VarBinding {
	return []core.VarBinding{
		{Port: prefix + PktPortName, Var: "pkt_blob", Size: MaxBlobBytes, Dir: core.ToISS, Label: "bp_recv"},
		{Port: prefix + CsumPortName, Var: "csum_out", Size: 4, Dir: core.ToSystemC, Label: "bp_send"},
	}
}

// DriverGuestSources returns the RTOS guest application for the
// Driver-Kernel scheme (linked after the uKOS kernel and driver).
func DriverGuestSources() []asm.Source {
	return []asm.Source{
		{Name: "app_drv.s", Text: appDrvSrc},
		{Name: "csum.s", Text: csumSrc},
	}
}

// DriverGuest returns uKOS, the co-simulation driver and the RTOS
// checksum application, linked once per process — the paper's eCos
// image, built once and loaded for every co-simulation. Like GDBGuest,
// the shared image is read-only.
func DriverGuest() (*asm.Image, error) { return driverGuest() }

var driverGuest = sync.OnceValues(func() (*asm.Image, error) {
	return rtos.Build(DriverGuestSources()...)
})

// DriverPorts declares the iss ports the driver addresses by name.
func DriverPorts() []core.VarBinding {
	return []core.VarBinding{
		{Port: PktPortName, Dir: core.ToISS},
		{Port: CsumPortName, Dir: core.ToSystemC},
	}
}

// GuestLines reports source line counts for the paper's §5 code-size
// comparison: the software side of the GDB schemes (application only)
// vs the Driver-Kernel scheme (application + driver, the "factor 9x").
func GuestLines() (gdbApp, drvApp, driver int) {
	return countLines(appGDBSrc), countLines(appDrvSrc), countLines(rtos.DriverSource())
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}

package core

import (
	"fmt"
	"io"
	"strings"

	"cosim/internal/asm"
	"cosim/internal/obs"
	"cosim/internal/sim"
)

// CommonOptions holds the configuration shared by every co-simulation
// scheme; the per-scheme *Options structs embed it.
type CommonOptions struct {
	// CPUPeriod is the guest cycle length in simulated time, used to
	// couple ISS cycles to the SystemC timeline. Zero disables timing
	// (untimed software, immediate delivery). The lock-step GDB-Wrapper
	// ignores it: its timing is implicit in the per-cycle quantum.
	CPUPeriod sim.Time
	// SkewBound, when non-zero, limits how far simulated time may run
	// past an outstanding request before the kernel waits (wall-clock)
	// for the guest's response. Zero = free-running. Ignored by the
	// lock-step GDB-Wrapper.
	SkewBound sim.Time
	// Journal, when non-nil, records every transfer.
	Journal *Journal
	// Obs, when non-nil, receives live co-simulation counters (see the
	// README's Observability section for the metric names). A nil
	// registry costs nothing on the hot path.
	Obs *obs.Registry
	// CPUs is the number of guest processors the scheme drives; zero
	// means one. Schemes that take explicit per-CPU transports
	// (Driver-Kernel channels) validate it against what they were
	// given; single-CPU schemes reject values above one.
	CPUs int
}

// Scheme is the uniform handle over the three co-simulation schemes —
// GDBWrapper, GDBKernel and DriverKernel all implement it, and
// Attach returns it.
type Scheme interface {
	// Name returns the scheme's canonical name ("gdb-wrapper",
	// "gdb-kernel", "driver-kernel").
	Name() string
	// Err returns the first co-simulation error, if any.
	Err() error
	// Stats returns the scheme's activity counters.
	Stats() Stats
	// Detach quiesces the guest so its counters can be read without
	// racing its goroutines: it halts a free-running ISS (GDB-Kernel)
	// and is a no-op for schemes whose guest only runs while the
	// scheme drives it. The transport itself is torn down by the
	// kernel's finalizers, not by Detach.
	Detach()
	// Publish copies the scheme's end-of-run transport totals into the
	// registry (rsp.* for the GDB schemes); live counters are emitted
	// during the run into CommonOptions.Obs. Safe on a nil registry.
	Publish(r *obs.Registry)
}

// Config describes a co-simulation attachment for the Attach factory.
// Scheme selects which of the remaining fields apply: the GDB schemes
// use Conn/Image/Bindings (plus Clock and InstrPerCycle for the
// lock-step wrapper), the Driver-Kernel scheme uses Channels.
type Config struct {
	// Scheme is the scheme name: "gdb-wrapper", "gdb-kernel" or
	// "driver-kernel" (short forms "wrapper", "kernel", "driver" are
	// accepted, case-insensitively).
	Scheme string
	Common CommonOptions

	// GDB schemes: the RSP connection to the ISS stub and the guest
	// image (symbols + line table) the variable bindings resolve
	// against. Teardown ownership: when Conn implements io.Closer (all
	// transport backends do), the kernel's finalizers close it at
	// Shutdown so the stub and client reader goroutines terminate; a
	// plain io.ReadWriter is left to the caller.
	Conn     io.ReadWriter
	Image    *asm.Image
	Bindings []VarBinding
	// Clock drives the GDB-Wrapper's per-cycle sc_method; required for
	// that scheme, ignored by the others.
	Clock *sim.Clock
	// InstrPerCycle is the GDB-Wrapper lock-step quantum (default 8).
	InstrPerCycle uint64

	// Channels declares one data/interrupt channel pair per CPU for the
	// Driver-Kernel scheme (channel i serves CPU i), with the
	// iss_in/iss_out ports each CPU's driver may address. Channel ends
	// that implement io.Closer are closed by the kernel's finalizers at
	// Shutdown, terminating their reader goroutines.
	Channels []DriverChannel

	// DMI grants the Driver-Kernel guests direct memory windows over
	// their bound ports (channels must carry a DMI granter to benefit).
	// Ignored by the GDB schemes.
	DMI bool
}

// Attach constructs and attaches the scheme named by cfg.Scheme to the
// kernel — the single entry point the harness and tools use instead of
// calling the per-scheme constructors.
func Attach(k *sim.Kernel, cfg Config) (Scheme, error) {
	switch strings.ToLower(strings.TrimSpace(cfg.Scheme)) {
	case "gdb-wrapper", "wrapper":
		if cfg.Common.CPUs > 1 {
			return nil, fmt.Errorf("core: gdb-wrapper drives a single ISS in lock-step; CPUs = %d is not supported", cfg.Common.CPUs)
		}
		return NewGDBWrapper(k, cfg.Conn, cfg.Image, GDBWrapperOptions{
			CommonOptions: cfg.Common,
			Clock:         cfg.Clock,
			InstrPerCycle: cfg.InstrPerCycle,
			Bindings:      cfg.Bindings,
		})
	case "gdb-kernel", "kernel":
		if cfg.Common.CPUs > 1 {
			return nil, fmt.Errorf("core: gdb-kernel multi-processor runs attach one scheme instance per CPU (with prefixed port bindings); CPUs = %d on one attachment is not supported", cfg.Common.CPUs)
		}
		return NewGDBKernel(k, cfg.Conn, cfg.Image, GDBKernelOptions{
			CommonOptions: cfg.Common,
			Bindings:      cfg.Bindings,
		})
	case "driver-kernel", "driver":
		return NewDriverKernelMulti(k, cfg.Channels, DriverKernelOptions{
			CommonOptions: cfg.Common,
			DMI:           cfg.DMI,
		})
	}
	return nil, fmt.Errorf("core: unknown scheme %q", cfg.Scheme)
}

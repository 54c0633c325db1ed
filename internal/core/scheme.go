package core

import (
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
	// Journal, when non-nil, records every transfer.
	Journal *Journal
	// Obs, when non-nil, receives live co-simulation counters (see the
	// README's Observability section for the metric names). A nil
	// registry costs nothing on the hot path.
	Obs *obs.Registry
}

// Scheme is the uniform handle over the three co-simulation schemes —
// GDBWrapper, GDBKernel and DriverKernel all implement it.
type Scheme interface {
	// Name returns the scheme's canonical name ("gdb-wrapper",
	// "gdb-kernel", "driver-kernel").
	Name() string
	// Err returns the first co-simulation error, if any.
	Err() error
	// Stats returns the scheme's activity counters.
	Stats() Stats
	// Detach ends the scheme's hold on the guest before the caller reads
	// its counters. The GDB schemes' ISS only runs while the scheme
	// drives it, so for them it is a no-op; Driver-Kernel revokes its
	// DMI windows. The transport itself is torn down by the kernel's
	// finalizers, not by Detach.
	Detach()
	// Publish copies the scheme's end-of-run totals (rsp.* for the GDB
	// schemes) into CommonOptions.Obs, the registry that also receives
	// its live counters during the run. Safe without a registry.
	Publish()
}

package core

import (
	"fmt"
	"testing"

	"cosim/internal/obs"
)

// publishFixture builds a DriverKernel with n CPUs and pre-resolved
// metric handles, without sockets or a kernel — Publish touches neither.
func publishFixture(n int, reg *obs.Registry) *DriverKernel {
	d := &DriverKernel{}
	d.obs.init(reg)
	for i := 0; i < n; i++ {
		c := &driverCPU{d: d, id: i, label: fmt.Sprintf("driver-kernel cpu%d", i)}
		c.obs.init(reg, i)
		c.pendingReads = make([]*binding, i%3) // non-trivial gauge values
		d.cpus = append(d.cpus, c)
	}
	return d
}

// TestPublishAllocFree pins the gauge-hoisting contract: publishing the
// pending-read backlogs into the registry the scheme was attached with
// must not build metric names or touch the heap — the handles were
// resolved once at construction.
func TestPublishAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs allocation counts")
	}
	reg := obs.NewRegistry()
	d := publishFixture(4, reg)

	allocs := testing.AllocsPerRun(200, func() { d.Publish() })
	if allocs > 0 {
		t.Errorf("Publish into the attach registry allocates %.1f/op, want 0", allocs)
	}

	snap := reg.Snapshot().Flatten()
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("driver.cpu%d.pending_reads", i)
		if got, want := snap[name], uint64(i%3); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := snap["driver.pending_reads"]; got != uint64(0+1+2+0) {
		t.Errorf("driver.pending_reads = %d, want 3", got)
	}
}

func BenchmarkDriverKernelPublish(b *testing.B) {
	reg := obs.NewRegistry()
	d := publishFixture(8, reg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Publish()
	}
}

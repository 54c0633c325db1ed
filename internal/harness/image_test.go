package harness

import (
	"reflect"
	"sync"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/router"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

// TestSharedGuestImagesStayPristine runs a GDB-Kernel and a
// Driver-Kernel session side by side, twice, the way cosimd's two
// workers do. Both share the process's guest images, so afterwards each
// image must still equal a fresh assembly of the same sources: no run
// may write to it. The getters must not allocate once the images exist.
func TestSharedGuestImagesStayPristine(t *testing.T) {
	for round := 0; round < 2; round++ {
		var wg sync.WaitGroup
		for _, s := range []Scheme{GDBKernel, DriverKernel} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p := Params{Scheme: s, Transport: core.TransportRing, CPUs: 2, DMI: true, SimTime: 200 * sim.US, Seed: 1}
				if _, err := Run(p); err != nil {
					t.Errorf("round %d, %v: %v", round, s, err)
				}
			}()
		}
		wg.Wait()
	}

	for _, tc := range []struct {
		name   string
		shared func() (*asm.Image, error)
		fresh  func() (*asm.Image, error)
	}{
		{"gdb", router.GDBGuest, func() (*asm.Image, error) {
			return asm.Assemble(asm.Options{DataBase: 0x10000}, router.GDBGuestSources()...)
		}},
		{"driver", router.DriverGuest, func() (*asm.Image, error) {
			return rtos.Build(router.DriverGuestSources()...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			shared, err := tc.shared()
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := tc.fresh()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(shared, fresh) {
				t.Fatal("the shared image differs from a fresh assembly of its sources: a run wrote to it")
			}
			if allocs := testing.AllocsPerRun(100, func() { _, _ = tc.shared() }); allocs != 0 {
				t.Fatalf("image getter allocates %v times per call, want 0", allocs)
			}
		})
	}
}

package harness

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cosim/internal/core"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// settledGoroutines samples the goroutine count until it holds still,
// so goroutines from earlier tests that are still winding down don't
// pollute the baseline.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// waitGoroutineBaseline polls until the live goroutine count is back at
// (or below) the pre-run baseline, failing with a full stack dump if it
// never gets there: those stacks are the leaked reader goroutines.
func waitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			dumped := runtime.Stack(buf, true)
			t.Fatalf("%d goroutines alive 5s after Run returned (baseline %d) — teardown leaked:\n%s",
				n, baseline, buf[:dumped])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunLeaksNoGoroutines runs every scheme over every backend (and a
// 2-CPU Driver-Kernel over ring) and checks that each run leaves
// nothing behind: the goroutine count returns to its baseline once Run
// returns, and every pooled payload buffer that a Driver-Kernel decode
// took out is back (core.DataBufsInUse). A leak fails with the leaked
// goroutines' stacks, or with the count of buffers still out.
func TestRunLeaksNoGoroutines(t *testing.T) {
	check := func(t *testing.T, p Params) {
		baseline := settledGoroutines()
		bufs := core.DataBufsInUse()
		if _, err := Run(p); err != nil {
			t.Fatal(err)
		}
		if n := core.DataBufsInUse(); n != bufs {
			t.Errorf("%d pooled payload buffers out after Run, want %d", n, bufs)
		}
		waitGoroutineBaseline(t, baseline)
	}
	transports := append([]transport.Transport{nil}, transport.All()...)
	for _, s := range Schemes {
		for _, tr := range transports {
			label := "default"
			if tr != nil {
				label = tr.Name()
			}
			t.Run(fmt.Sprintf("%v/%s", s, label), func(t *testing.T) {
				check(t, Params{Scheme: s, Transport: tr, SimTime: 200 * sim.US})
			})
		}
	}
	t.Run("Driver-Kernel/ring/cpus=2", func(t *testing.T) {
		check(t, Params{Scheme: DriverKernel, Transport: core.TransportRing, SimTime: 200 * sim.US, CPUs: 2})
	})
}

// goroutineSampler wraps a backend so each host-side Read of a pair it
// creates notes the live goroutine count: the count while a run waits
// for, or serves, its guests.
type goroutineSampler struct {
	core.Transport
	max int
}

func (g *goroutineSampler) Pair() (host, guest transport.Endpoint, err error) {
	host, guest, err = g.Transport.Pair()
	return &sampledEndpoint{host, g}, guest, err
}

type sampledEndpoint struct {
	transport.Endpoint
	g *goroutineSampler
}

func (e *sampledEndpoint) Read(p []byte) (int, error) {
	e.g.max = max(e.g.max, runtime.NumGoroutine())
	return e.Endpoint.Read(p)
}

// TestGDBKernelRingStartsNoGoroutine: over the ring, GDB-Kernel's stubs
// run on the kernel's goroutine, inside its reads, so a run at 1 and at
// 2 CPUs starts no goroutine: none is alive beyond the baseline at any
// read of the run.
func TestGDBKernelRingStartsNoGoroutine(t *testing.T) {
	for _, cpus := range []int{1, 2} {
		t.Run(fmt.Sprintf("cpus=%d", cpus), func(t *testing.T) {
			baseline := settledGoroutines()
			tr := &goroutineSampler{Transport: core.TransportRing}
			res, err := Run(Params{Scheme: GDBKernel, Transport: tr, CPUs: cpus, SimTime: 200 * sim.US, Delay: 5 * sim.US, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.CoStats.Stops == 0 || tr.max == 0 {
				t.Fatalf("%d stops, %d goroutines sampled: the run served no stop", res.CoStats.Stops, tr.max)
			}
			if tr.max > baseline {
				t.Fatalf("%d goroutines alive during the run, baseline %d", tr.max, baseline)
			}
		})
	}
}

// errPairRefused is the fault failingTransport injects.
var errPairRefused = errors.New("pair refused")

// failingTransport wraps a backend and fails its failAt-th Pair call
// (1-based), so a multi-CPU set-up breaks after earlier CPUs are wired.
type failingTransport struct {
	core.Transport
	failAt, calls int
}

func (f *failingTransport) Pair() (host, guest transport.Endpoint, err error) {
	f.calls++
	if f.calls == f.failAt {
		return nil, nil, errPairRefused
	}
	return f.Transport.Pair()
}

// TestRunSetupFailureLeaksNothing fails the N-th channel pair of a
// 2-CPU set-up. Run must return the fault, and every goroutine of the
// CPUs wired before it (stub serve loops and client readers)
// must be gone afterwards.
func TestRunSetupFailureLeaksNothing(t *testing.T) {
	for _, tc := range []struct {
		scheme Scheme
		failAt int
	}{
		{GDBKernel, 1}, // CPU 0's RSP pair: nothing wired yet
		{GDBKernel, 2}, // CPU 1's RSP pair: CPU 0 attached and free-running
		{DriverKernel, 1},
		{DriverKernel, 2}, // CPU 0's interrupt pair
		{DriverKernel, 3}, // CPU 1's data pair: CPU 0 wired
		{DriverKernel, 4}, // CPU 1's interrupt pair
	} {
		t.Run(fmt.Sprintf("%v/pair=%d", tc.scheme, tc.failAt), func(t *testing.T) {
			baseline := settledGoroutines()
			tr := &failingTransport{Transport: core.TransportRing, failAt: tc.failAt}
			_, err := Run(Params{Scheme: tc.scheme, Transport: tr, SimTime: 200 * sim.US, CPUs: 2})
			if !errors.Is(err, errPairRefused) {
				t.Fatalf("Run error = %v, want %v", err, errPairRefused)
			}
			waitGoroutineBaseline(t, baseline)
		})
	}
}

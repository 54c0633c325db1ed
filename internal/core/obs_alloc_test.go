package core

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"cosim/internal/gdb"
	"cosim/internal/obs"
	"cosim/internal/sim"
)

// hotPathMessage mimics one Driver-Kernel message service: the
// pre-resolved metric touches that bracket a WRITE, plus the wire
// encode itself.
func hotPathMessage(o *driverObs, m Message) error {
	o.polls.Inc()
	o.messages.Inc()
	o.writes.Inc()
	sp := o.waitNS.Start()
	err := WriteMessage(io.Discard, m)
	sp.End()
	return err
}

// TestDisabledObsMessageHotPathAllocs pins the API contract of the obs
// layer: with no registry attached (init(nil)), every metric pointer is
// nil and the instrumented message hot path allocates nothing — the
// instrumentation must cost a nil check, not a heap object.
func TestDisabledObsMessageHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool; allocation counts unstable")
	}
	var o driverObs
	o.init(nil) // disabled: all metric pointers stay nil
	m := Message{Type: MsgWrite, Cycles: 7, Port: "csum", Data: []byte{1, 2, 3, 4}}

	allocs := testing.AllocsPerRun(200, func() {
		if err := hotPathMessage(&o, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("disabled-obs message hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestEnabledObsMessageHotPathAllocs guards the enabled side too: the
// registry resolves metrics once at init; per-message updates are
// atomic ops on existing objects. Only the histogram span may not touch
// the heap either — it is a stack value.
func TestEnabledObsMessageHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector perturbs sync.Pool; allocation counts unstable")
	}
	var o driverObs
	o.init(obs.NewRegistry())
	m := Message{Type: MsgWrite, Cycles: 7, Port: "csum", Data: []byte{1, 2, 3, 4}}

	allocs := testing.AllocsPerRun(200, func() {
		if err := hotPathMessage(&o, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("enabled-obs message hot path allocates %.1f/op, want 0", allocs)
	}
}

func BenchmarkMessageHotPathObsDisabled(b *testing.B) {
	var o driverObs
	o.init(nil)
	m := Message{Type: MsgWrite, Cycles: 7, Port: "csum", Data: []byte{1, 2, 3, 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hotPathMessage(&o, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMessageHotPathObsEnabled(b *testing.B) {
	var o driverObs
	o.init(obs.NewRegistry())
	m := Message{Type: MsgWrite, Cycles: 7, Port: "csum", Data: []byte{1, 2, 3, 4}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := hotPathMessage(&o, m); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDisabledObsStopServiceAllocs pins what servicing one breakpoint
// stop allocates with tracing and metrics off, counted over the kernel
// side and the stub goroutine alike. Replies are read in place and the
// stop arrives already parsed, so an sc->iss poke allocates nothing.
// An iss->sc transfer is delivered at once, at the stop's time, from
// the bytes the client decodes into its own buffer: it allocates
// nothing on either scheme. The wrapper's transfers are measured alone; GDB-Kernel's,
// which also resume the guest, through the resume and the run to the
// next stop.
func TestDisabledObsStopServiceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instruments allocation; counts unstable")
	}
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel("top")
	e := &gdbEngine{k: k, clock: guestClock{k: k, period: sim.NS}, schemeName: "gdb-kernel"}
	e.obs.init(nil)
	if e.cl, err = gdb.NewClient(target.HostConn); err != nil {
		t.Fatal(err)
	}
	defer func() {
		shutdownClient(e.cl, target.HostConn)
		_ = target.Wait()
	}()
	if e.byAddr, e.byWatch, err = resolveBindings(k, im, doublerBindings); err != nil {
		t.Fatal(err)
	}
	req, _ := k.IssOutPort("req")
	word := []byte{1, 2, 3, 4}
	for _, c := range []struct {
		dir   string
		label string
		max   float64
	}{
		{"sc->iss", "bp_req", 0},
		{"iss->sc", "bp_resp", 0},
	} {
		ev := gdb.StopEvent{Signal: 5, Expedited: true, PC: im.MustSymbol(c.label)}
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			req.Write(word) // fresh data for the poke
			ev.Cycles++
			if next, e2 := e.handleStop(&ev); e2 != nil || next != nil {
				err = fmt.Errorf("handleStop = %v, %v", next, e2)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > c.max {
			t.Errorf("%s stop: %.1f allocs, want <= %.0f", c.dir, allocs, c.max)
		}
	}

	// GDB-Kernel: the guest stops at bp_req and bp_resp in turn. Each
	// window spans one service, the transfer and resume in one write,
	// and the wait for the next stop.
	e.continues = true
	if err := e.installBreakpoints(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bpReq := im.MustSymbol("bp_req")
	var mallocs, stops [2]uint64 // by direction: sc->iss, iss->sc
	var ms runtime.MemStats
	var stop gdb.StopEvent
	ev, err := e.cl.Continue()
	for i := 0; i < 420; i++ {
		if err != nil {
			t.Fatal(err)
		}
		dir := 1
		if ev.PC == bpReq {
			dir = 0
			req.Write(word)
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		stop = *ev // the resume reuses the client's event
		ev, err = e.handleStop(&stop)
		runtime.ReadMemStats(&ms)
		if i >= 20 { // past warm-up, as testing.AllocsPerRun skips one run
			mallocs[dir] += ms.Mallocs - before
			stops[dir]++
		}
	}
	for dir, name := range [2]string{"sc->iss", "iss->sc"} {
		// Whole allocations per stop, rounded down as AllocsPerRun does.
		if got := mallocs[dir] / stops[dir]; got > 0 {
			t.Errorf("gdb-kernel %s stop: %d allocs, want 0", name, got)
		}
	}
}

// GDB-Kernel times one stop wait in stopWaitSample, the first of each
// run of that many, and scales it: cosim.skew_waits stays exact, and
// cosim.skew_wait_ns counts stopWaitSample per sample, so its sum
// still estimates the total wait.
func TestStopWaitSampling(t *testing.T) {
	reg := obs.NewRegistry()
	var o engineObs
	o.init(reg)
	const waits = 2*stopWaitSample + 1 // samples the 1st, 17th and 33rd
	timed := 0
	for i := 0; i < waits; i++ {
		sp := o.waitStop()
		if sp != (obs.Span{}) {
			timed++
		}
		sp.End()
	}
	c := reg.Snapshot().Flatten()
	if c["cosim.skew_waits"] != waits {
		t.Errorf("cosim.skew_waits = %d, want %d", c["cosim.skew_waits"], waits)
	}
	if timed != 3 {
		t.Errorf("%d of %d waits timed, want 3", timed, waits)
	}
	if got := c["cosim.skew_wait_ns.count"]; got != 3*stopWaitSample {
		t.Errorf("cosim.skew_wait_ns.count = %d, want %d", got, 3*stopWaitSample)
	}
	if sum := c["cosim.skew_wait_ns.sum"]; sum%stopWaitSample != 0 {
		t.Errorf("cosim.skew_wait_ns.sum = %d, want a multiple of %d", sum, stopWaitSample)
	}

	var off engineObs
	off.init(nil) // no registry: nothing is timed, nothing counted
	if sp := off.waitStop(); sp != (obs.Span{}) {
		t.Error("a disabled registry timed a wait")
	}
}

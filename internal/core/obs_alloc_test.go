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
	sp := o.skewWaitNS.Start()
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
// stop arrives already parsed, so an sc->iss poke allocates nothing and
// an iss->sc transfer allocates only what outlives the stop: the data
// read from the guest and the call that delivers it at its cycle time.
// The wrapper's transfers are measured alone; GDB-Kernel's, which also
// resume the guest, through the resume and the run to the next stop.
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
	e := &gdbEngine{k: k, period: sim.NS, schemeName: "gdb-kernel"}
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
		{"iss->sc", "bp_resp", 2},
	} {
		ev := gdb.StopEvent{Signal: 5, Expedited: true, PC: im.MustSymbol(c.label)}
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			req.Write(word) // fresh data for the poke
			ev.Cycles++
			if resume, e2 := e.handleStop(&ev); e2 != nil || !resume {
				err = fmt.Errorf("handleStop = %v, %v", resume, e2)
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
	if err := e.cl.Continue(); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bpReq := im.MustSymbol("bp_req")
	var mallocs, stops [2]uint64 // by direction: sc->iss, iss->sc
	var ms runtime.MemStats
	ev, err := e.cl.WaitStop()
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
		if resume, e2 := e.handleStop(ev); e2 != nil || !resume {
			t.Fatalf("handleStop = %v, %v", resume, e2)
		}
		ev, err = e.cl.WaitStop()
		runtime.ReadMemStats(&ms)
		if i >= 20 { // past warm-up, as testing.AllocsPerRun skips one run
			mallocs[dir] += ms.Mallocs - before
			stops[dir]++
		}
	}
	for dir, name := range [2]string{"sc->iss", "iss->sc"} {
		// Whole allocations per stop, rounded down as AllocsPerRun does.
		if got, bound := mallocs[dir]/stops[dir], [2]uint64{0, 2}[dir]; got > bound {
			t.Errorf("gdb-kernel %s stop: %d allocs, want <= %d", name, got, bound)
		}
	}
}

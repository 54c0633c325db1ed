package gdb

import (
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosim/internal/asm"
	"cosim/internal/iss"
	link "cosim/internal/transport"
)

// newInlineTarget serves a CPU running src over a ring pair with no
// goroutine (NewInline) and attaches a client to the inline end.
func newInlineTarget(t *testing.T, src string) (*Client, *iss.CPU, *asm.Image, *Inline) {
	t.Helper()
	cpu, im := testCPU(t, src)
	host, guest, err := link.Ring.Pair()
	if err != nil {
		t.Fatal(err)
	}
	_, in := NewInline(cpu, host, guest)
	cl, err := NewClient(in)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Kill(); in.Close() })
	return cl, cpu, im, in
}

// TestInlineRunsContinuesOnTheCaller: continues run their chunks inside
// the client's read, the timer stops on the way to each breakpoint
// included, so serving them starts no goroutine; a kill then ends the
// stub, which Wait reports as a clean end, and the client reads io.EOF.
func TestInlineRunsContinuesOnTheCaller(t *testing.T) {
	base := settledGoroutines()
	cl, cpu, im, in := newInlineTarget(t, longLoopProg)
	if err := cl.SetBreakpoint(im.MustSymbol("target")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev, timers, err := continueToStop(cl)
		if err != nil || ev.Signal != 5 || ev.PC != im.MustSymbol("target") || timers == 0 {
			t.Fatalf("continue %d = %+v, %v after %d timer stops; want the breakpoint stop after some", i, ev, err, timers)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after continue %d, want at most the baseline %d", n, i, base)
		}
	}
	if got := cpu.Instructions(); got < 3*chunkBudget {
		t.Fatalf("%d instructions to the third breakpoint stop, want more than three chunks", got)
	}
	if err := cl.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := in.Wait(); err != nil {
		t.Fatalf("Wait after kill = %v, want nil", err)
	}
	if _, err := in.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after kill = %v, want io.EOF", err)
	}
}

// TestInlineStopTimeout: an inline stub runs each continue's chunk
// inside the client's read, so a spinning guest's continues end in
// timer stops within the stop timeout. Only a stub whose replies are
// lost outlasts it: the watchdog's close, from its own goroutine, ends
// the read, and the client fails with ErrTimeout within twice the
// timeout.
func TestInlineStopTimeout(t *testing.T) {
	cpu, _ := testCPU(t, "_start:\nspin:\n    j spin\n")
	host, guest, err := link.Ring.Pair()
	if err != nil {
		t.Fatal(err)
	}
	var mute atomic.Bool
	_, in := NewInline(cpu, host, mutedEnd{guest, &mute})
	cl, err := NewClient(in)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cl.Kill(); in.Close() })
	const d = 100 * time.Millisecond
	cl.SetStopTimeout(d)
	for start := time.Now(); time.Since(start) < 2*d; {
		if ev, err := cl.Continue(); err != nil || !ev.Timer() {
			t.Fatalf("continue = %v, %v; want a timer stop", ev, err)
		}
	}
	time.Sleep(3 * d) // the watchdog goes idle, so the next wait gets a fresh tick
	mute.Store(true)
	start := time.Now()
	if _, err := cl.Continue(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("continue = %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took >= 2*d {
		t.Fatalf("the timeout took %v, want under %v", took, 2*d)
	}
}

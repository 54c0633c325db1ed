package gdb

import (
	"errors"
	"io"
	"runtime"
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

// TestInlineRunsContinuesOnTheCaller: continues that outlast their
// first chunk run to their stop inside the client's read, so serving
// them starts no goroutine; a kill then ends the stub, which Wait
// reports as a clean end, and the client reads io.EOF.
func TestInlineRunsContinuesOnTheCaller(t *testing.T) {
	base := settledGoroutines()
	cl, cpu, im, in := newInlineTarget(t, longLoopProg)
	if err := cl.SetBreakpoint(im.MustSymbol("target")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ev, err := cl.Continue()
		if err != nil || ev.Signal != 5 || ev.PC != im.MustSymbol("target") {
			t.Fatalf("continue %d = %+v, %v; want the breakpoint stop", i, ev, err)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("%d goroutines after continue %d, want at most the baseline %d", n, i, base)
		}
	}
	if got := cpu.Instructions(); got < 3*chunkBudget {
		t.Fatalf("%d instructions in three continues, want each past its first chunk", got)
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

// TestInlineBreakIn: a break-in from a second goroutine ends a
// continue that the client's goroutine is running inside its read.
func TestInlineBreakIn(t *testing.T) {
	cl, _, _, _ := newInlineTarget(t, `
_start:
spin:
    j spin
`)
	cl.SetStopTimeout(5 * time.Second)
	sent := breakIn(t, cl, 5*time.Millisecond)
	ev, err := cl.Continue()
	<-sent
	if err != nil || ev.Signal != 2 {
		t.Fatalf("continue = %+v, %v; want SIGINT", ev, err)
	}
}

// TestInlineStopTimeout: the stop watchdog closes the inline end under
// a continue that never stops; the close hangs the stub up, so the
// continue ends at its next chunk and the client fails with ErrTimeout
// within twice the timeout.
func TestInlineStopTimeout(t *testing.T) {
	cl, _, _, in := newInlineTarget(t, `
_start:
spin:
    j spin
`)
	const d = 200 * time.Millisecond
	cl.SetStopTimeout(d)
	start := time.Now()
	if _, err := cl.Continue(); !errors.Is(err, ErrTimeout) {
		t.Fatalf("continue = %v, want ErrTimeout", err)
	}
	if took := time.Since(start); took >= 2*d {
		t.Fatalf("the timeout took %v, want under %v", took, 2*d)
	}
	if err := in.Wait(); err == nil {
		t.Fatal("Wait = nil; want the failed write of the stop reply")
	}
}

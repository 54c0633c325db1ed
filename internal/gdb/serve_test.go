package gdb

import (
	"runtime"
	"testing"
	"time"
)

// longLoopProg stops at target once per 100 000 loop iterations, so
// every continue outlasts its first chunk and goes to a runner.
const longLoopProg = `
_start:
    li   t0, 100000
count:
    addi t0, t0, -1
    bne  t0, zero, count
target:
    addi a0, a0, 1
    j    _start
`

// settledGoroutines samples the goroutine count until it holds still,
// so goroutines of earlier tests that are still winding down do not
// count in a baseline.
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

// waitGoroutines polls until the goroutine count is at most want,
// failing with every goroutine's stack if it never gets there.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// continueToTarget sets a breakpoint at the program's target and
// continues to it n times.
func continueToTarget(t *testing.T, src string, n int) *Client {
	t.Helper()
	cl, _, im := newTarget(t, src)
	if err := cl.SetBreakpoint(im.MustSymbol("target")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ev, err := cl.Continue()
		if err != nil || ev.Signal != 5 {
			t.Fatalf("continue %d = %+v, %v; want the breakpoint stop", i, ev, err)
		}
	}
	return cl
}

// TestShortContinuesStartNoRunner: continues that each stop within
// their first chunk are run by Serve itself, so the stub starts no
// runner goroutine.
func TestShortContinuesStartNoRunner(t *testing.T) {
	base := settledGoroutines()
	continueToTarget(t, warmLoopProg, 20)
	if n := runtime.NumGoroutine(); n != base+1 {
		t.Fatalf("%d goroutines after 20 short continues, want %d (baseline and Serve)", n, base+1)
	}
}

// TestKillLeavesNoGoroutines: a runner ends with its continue's stop
// reply, and Kill ends Serve, with or without long continues before it.
func TestKillLeavesNoGoroutines(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"no-runner", warmLoopProg},
		{"runner", longLoopProg},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := settledGoroutines()
			cl := continueToTarget(t, c.src, 3)
			waitGoroutines(t, base+1) // Serve alone
			if err := cl.Kill(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestBreakInIdleGuest: a continue whose guest idles in WFI with
// nothing pending never stops by itself; a break-in ends it with SIGINT
// within one idle wait and chunk, far below the bound checked here.
func TestBreakInIdleGuest(t *testing.T) {
	cl, cpu, _ := newTarget(t, `
_start:
idle:
    wfi
    j idle
`)
	cl.SetStopTimeout(5 * time.Second)
	sent := breakIn(t, cl, 20*time.Millisecond)
	ev, err := cl.Continue()
	stopped := time.Now()
	at := <-sent
	if err != nil || ev.Signal != 2 {
		t.Fatalf("idle continue = %+v, %v; want SIGINT", ev, err)
	}
	if stopped.Before(at) {
		t.Fatal("the idle continue stopped before the break-in")
	}
	if d := stopped.Sub(at); d > time.Second {
		t.Fatalf("break-in took %v to end the idle continue", d)
	}
	if !cpu.Sleeping() {
		t.Fatal("guest left WFI with nothing pending")
	}
}

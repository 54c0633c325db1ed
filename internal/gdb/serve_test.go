package gdb

import (
	"runtime"
	"testing"
	"time"
)

// longLoopProg stops at target once per 100 000 loop iterations, so
// every continue outlasts its first chunk.
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

// TestKillLeavesNoGoroutines: Serve runs every continue itself, those
// that stop within their first chunk and those that outlast it, so the
// stub's only goroutine is Serve's, and Kill ends it.
func TestKillLeavesNoGoroutines(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"short", warmLoopProg},
		{"long", longLoopProg},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := settledGoroutines()
			cl := continueToTarget(t, c.src, 3)
			if n := runtime.NumGoroutine(); n != base+1 {
				t.Fatalf("%d goroutines after 3 continues, want %d (baseline and Serve)", n, base+1)
			}
			if err := cl.Kill(); err != nil {
				t.Fatal(err)
			}
			waitGoroutines(t, base)
		})
	}
}

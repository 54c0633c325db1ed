package gdb

import (
	"errors"
	"testing"
	"time"

	"cosim/internal/isa"
	"cosim/internal/iss"
)

// warmLoopProg spins forever; one iteration is three instructions.
const warmLoopProg = `
_start:
loop:
    addi s0, s0, 1
target:
    addi a0, a0, 5
    j    loop
`

// breakpointWordBytes is isa.BreakpointWord in wire (little-endian)
// byte order, as a debugger writes it into target memory.
func breakpointWordBytes() []byte {
	w := make([]byte, 4)
	for i := range w {
		w[i] = byte(isa.BreakpointWord >> (8 * i))
	}
	return w
}

// runToEBreak resumes the target and requires a SIGTRAP stop at want.
// A stale predecoded entry would keep executing the overwritten
// instruction, so a timeout here means the cache was not invalidated.
func runToEBreak(t *testing.T, cl *Client, cpu *iss.CPU, want uint32) {
	t.Helper()
	cl.SetStopTimeout(5 * time.Second)
	ev, err := cl.Continue()
	if errors.Is(err, ErrTimeout) {
		t.Fatal("no stop: EBREAK written through the stub never fired")
	}
	if err != nil {
		t.Fatal(err)
	}
	if ev.Signal != 5 {
		t.Fatalf("signal = %d, want 5 (SIGTRAP)", ev.Signal)
	}
	if cpu.PC != want {
		t.Fatalf("stopped at %#x, want %#x", cpu.PC, want)
	}
}

// TestSoftwareBreakpointViaMPacket covers debuggers that place
// breakpoints with plain memory writes (M packet) instead of Z0: the
// write lands in code the CPU has already executed and predecoded, so
// the stub must invalidate the decode cache for the EBREAK to fire.
func TestSoftwareBreakpointViaMPacket(t *testing.T) {
	cl, cpu, im := newTarget(t, warmLoopProg)
	// Execute one full loop iteration so every instruction, including
	// the one at target, is already decoded.
	for i := 0; i < 3; i++ {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	target := im.MustSymbol("target")
	if err := cl.WriteMemory(target, breakpointWordBytes()); err != nil {
		t.Fatal(err)
	}
	runToEBreak(t, cl, cpu, target)
	if _, _, inv := cpu.DecodeCacheStats(); inv == 0 {
		t.Error("stub memory write caused no decode invalidation")
	}
}

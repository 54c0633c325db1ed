package gdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"cosim/internal/isa"
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
func runToEBreak(t *testing.T, cl *Client, want uint32) {
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
	pc, err := cl.ReadPC()
	if err != nil {
		t.Fatal(err)
	}
	if pc != want {
		t.Fatalf("stopped at %#x, want %#x", pc, want)
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
	runToEBreak(t, cl, target)
	if _, _, inv := cpu.DecodeCacheStats(); inv == 0 {
		t.Error("stub memory write caused no decode invalidation")
	}
}

// TestSoftwareBreakpointViaXPacket is the binary-write twin: the same
// EBREAK patch delivered through an X packet must also invalidate.
func TestSoftwareBreakpointViaXPacket(t *testing.T) {
	cl, _, im := newTarget(t, warmLoopProg)
	for i := 0; i < 3; i++ {
		if _, err := cl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	target := im.MustSymbol("target")
	data := escape(breakpointWordBytes())
	pkt := append([]byte(fmt.Sprintf("X%x,%x:", target, 4)), data...)
	r, err := cl.transact(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkOK(r, "X write"); err != nil {
		t.Fatal(err)
	}
	runToEBreak(t, cl, target)
}

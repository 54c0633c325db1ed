package iss

import (
	"testing"

	"cosim/internal/asm"
	"cosim/internal/isa"
)

// bothFetchPaths assembles src and runs fn on the two fetch paths of
// the one engine: "cached" on the SystemBus, whose RAM the decode cache
// covers, and "uncached" on a plainBus, where every fetch takes the
// miss path. Each behavioral contract must hold on both.
func bothFetchPaths(t *testing.T, src string, fn func(t *testing.T, c *CPU, im *asm.Image, cached bool)) {
	t.Run("cached", func(t *testing.T) {
		c, im := buildCPU(t, src)
		fn(t, c, im, true)
	})
	t.Run("uncached", func(t *testing.T) {
		_, im := buildCPU(t, src)
		fn(t, plainBusCPU(t, im), im, false)
	})
}

// plainBusCPU loads im into a fresh RAM behind a plainBus.
func plainBusCPU(t *testing.T, im *asm.Image) *CPU {
	t.Helper()
	ram := NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		t.Fatal(err)
	}
	c := New(plainBus{ram})
	c.Reset(im.Entry)
	return c
}

// selfModifyProg executes patchme once, overwrites it with the
// instruction stored at newinst, loops back, and halts after the
// second pass. A stale decode would leave a0 == 2.
const selfModifyProg = `
_start:
    addi a2, zero, 0
loop:
patchme:
    addi a0, zero, 2
    addi a2, a2, 1
    addi t3, zero, 2
    beq  a2, t3, done
    la   t0, patchme
    la   t1, newinst
    lw   t2, 0(t1)
    sw   t2, 0(t0)
    j    loop
done:
    halt
newinst:
    addi a0, zero, 101
`

func TestSelfModifyingCode(t *testing.T) {
	bothFetchPaths(t, selfModifyProg, func(t *testing.T, c *CPU, _ *asm.Image, cached bool) {
		runToHalt(t, c, 100)
		if got := c.Regs[10]; got != 101 {
			t.Fatalf("a0 = %d, want 101 (patched instruction not executed)", got)
		}
		hits, _, inv := c.DecodeCacheStats()
		if cached {
			if hits == 0 {
				t.Error("decode cache reported zero hits")
			}
			if inv == 0 {
				t.Error("store into executed code caused no invalidation")
			}
		} else if hits != 0 {
			t.Errorf("miss path counted %d hits", hits)
		}
	})
}

func TestSelfModifyingCodeByteStore(t *testing.T) {
	// Patch only the low immediate byte of "addi a0, zero, 2" with a
	// byte store: sub-word writes must invalidate the covering word.
	bothFetchPaths(t, `
_start:
    addi a2, zero, 0
loop:
patchme:
    addi a0, zero, 2
    addi a2, a2, 1
    addi t3, zero, 2
    beq  a2, t3, done
    la   t0, patchme
    addi t1, zero, 101
    sb   t1, 0(t0)
    j    loop
done:
    halt
`, func(t *testing.T, c *CPU, _ *asm.Image, _ bool) {
		runToHalt(t, c, 100)
		if got := c.Regs[10]; got != 101 {
			t.Fatalf("a0 = %d, want 101 (byte patch not executed)", got)
		}
	})
}

func TestMidRunAddBreakpoint(t *testing.T) {
	bothFetchPaths(t, `
_start:
loop:
    addi s0, s0, 1
    j    loop
`, func(t *testing.T, c *CPU, im *asm.Image, _ bool) {
		// Warm the loop so its instructions are decoded before the
		// breakpoint is armed.
		if stop, _ := c.Run(100); stop != StopBudget {
			t.Fatalf("warmup stop = %v", stop)
		}
		bp := im.MustSymbol("loop")
		c.AddBreakpoint(bp)
		stop, _ := c.Run(1000)
		if stop != StopBreak {
			t.Fatalf("stop = %v, want break", stop)
		}
		if c.PC != bp {
			t.Fatalf("stopped at %#x, want %#x", c.PC, bp)
		}
		// Resume: the engine must step over the breakpointed
		// instruction, run one loop iteration, and stop again.
		before := c.Regs[4]
		stop, n := c.Run(1000)
		if stop != StopBreak || c.PC != bp {
			t.Fatalf("resume stop = %v at %#x, want break at %#x", stop, c.PC, bp)
		}
		if n != 2 || c.Regs[4] != before+1 {
			t.Fatalf("resume ran %d steps, s0 %d -> %d; want one iteration", n, before, c.Regs[4])
		}
		// Clearing the breakpoint lets the loop run freely again.
		c.RemoveBreakpoint(bp)
		if stop, _ := c.Run(100); stop != StopBudget {
			t.Fatalf("post-clear stop = %v", stop)
		}
	})
}

func TestFetchBusErrorCause(t *testing.T) {
	bothFetchPaths(t, `
_start:
    li   t0, 0x100
    mtsr ivec, t0
    li   t1, 0x200000    ; aligned, beyond the 1 MiB RAM
    jalr zero, t1, 0
.org 0x100
handler:
    mfsr a0, cause
    halt
`, func(t *testing.T, c *CPU, _ *asm.Image, _ bool) {
		runToHalt(t, c, 100)
		if got := c.Regs[10]; got != isa.CauseBus {
			t.Fatalf("cause = %d, want bus error (%d)", got, isa.CauseBus)
		}
	})
}

func TestLoadStoreBusErrorCause(t *testing.T) {
	for _, tc := range []struct {
		name, access string
		want         uint32
	}{
		{"load-beyond-ram", "lw   a1, 0(t1)", isa.CauseBus},
		{"store-beyond-ram", "sw   a1, 0(t1)", isa.CauseBus},
		{"misaligned-load", "lw   a1, 1(zero)", isa.CauseAlign},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, _ := buildCPU(t, `
_start:
    li   t0, 0x100
    mtsr ivec, t0
    li   t1, 0x200000
    `+tc.access+`
    halt
.org 0x100
handler:
    mfsr a0, cause
    halt
`)
			runToHalt(t, c, 100)
			if got := c.Regs[10]; got != tc.want {
				t.Fatalf("cause = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestDecodeCacheCounters(t *testing.T) {
	c, _ := buildCPU(t, `
_start:
    addi t0, zero, 50
loop:
    addi s0, s0, 1
    bne  s0, t0, loop
    halt
`)
	runToHalt(t, c, 1000)
	hits, misses, inv := c.DecodeCacheStats()
	if misses == 0 || hits == 0 {
		t.Fatalf("hits = %d, misses = %d; want both nonzero", hits, misses)
	}
	if hits <= misses {
		t.Fatalf("hits = %d <= misses = %d; loop should be dominated by hits", hits, misses)
	}
	if inv != 0 {
		t.Fatalf("invalidations = %d, want 0 (no code stores)", inv)
	}
}

// plainBus is a Bus the CPU cannot see through to a RAM.
type plainBus struct{ *RAM }

// TestCustomBusTakesMissPath: on a Bus that is not this package's, the
// decode cache covers nothing, so every fetch takes the miss path:
// nothing is cached or counted, the program still runs, and a
// breakpoint still hits through the breakpoint map.
func TestCustomBusTakesMissPath(t *testing.T) {
	ref, im := buildCPU(t, selfModifyProg)
	runToHalt(t, ref, 100)

	c := plainBusCPU(t, im)
	runToHalt(t, c, 100)
	if c.Regs != ref.Regs || c.Cycles() != ref.Cycles() || c.Instructions() != ref.Instructions() {
		t.Fatalf("custom bus: regs %v, %d cycles, %d instructions; RAM bus: %v, %d, %d",
			c.Regs, c.Cycles(), c.Instructions(), ref.Regs, ref.Cycles(), ref.Instructions())
	}
	if hits, misses, inv := c.DecodeCacheStats(); hits != 0 || misses != 0 || inv != 0 {
		t.Fatalf("custom bus counted hits=%d misses=%d invalidations=%d", hits, misses, inv)
	}

	bp := im.MustSymbol("loop")
	c.Reset(im.Entry)
	c.AddBreakpoint(bp)
	if stop, _ := c.Run(1000); stop != StopBreak || c.PC != bp {
		t.Fatalf("stop = %v at %#x, want break at %#x", stop, c.PC, bp)
	}
}

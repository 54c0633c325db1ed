package cosim

// Cross-module integration tests: scenarios that span the whole stack
// (toolchain -> ISS -> RTOS -> co-simulation schemes) rather than a
// single package.

import (
	"testing"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/dev"
	"cosim/internal/gdb"
	"cosim/internal/harness"
	"cosim/internal/iss"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

// TestSchemeFunctionalEquivalence: at low load all three co-simulation
// schemes must do exactly the same work — same packets generated, all
// forwarded, none corrupted. The schemes differ in performance, never
// in function.
func TestSchemeFunctionalEquivalence(t *testing.T) {
	type outcome struct {
		generated, forwarded, received uint64
	}
	var results []outcome
	for _, s := range harness.Schemes {
		res, err := harness.Run(harness.Params{
			Scheme:           s,
			Transport:        core.TransportPipe,
			SimTime:          20 * sim.MS,
			Delay:            200 * sim.US,
			PacketsPerSource: 10,
			Seed:             77,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if res.BadContent != 0 || res.Misrouted != 0 {
			t.Fatalf("%v: integrity violation %+v", s, res)
		}
		results = append(results, outcome{res.Generated, res.Forwarded, res.Received})
	}
	for i := 1; i < len(results); i++ {
		if results[i] != results[0] {
			t.Fatalf("schemes disagree: %v vs %v", results[0], results[i])
		}
	}
	if results[0].generated != 40 || results[0].forwarded != 40 {
		t.Fatalf("expected all 40 packets through: %+v", results[0])
	}
}

// TestWrapperQuantumSweep: the lock-step wrapper must be functionally
// identical across quantum sizes — the quantum is a speed/accuracy
// knob, not a semantic one.
func TestWrapperQuantumSweep(t *testing.T) {
	for _, quantum := range []uint64{1, 4, 32, 256} {
		res, err := harness.Run(harness.Params{
			Scheme:           harness.GDBWrapper,
			Transport:        core.TransportPipe,
			SimTime:          10 * sim.MS,
			Delay:            300 * sim.US,
			PacketsPerSource: 4,
			InstrPerCycle:    quantum,
			Seed:             9,
		})
		if err != nil {
			t.Fatalf("quantum %d: %v", quantum, err)
		}
		if res.Forwarded != 16 || res.BadContent != 0 {
			t.Fatalf("quantum %d: forwarded %d of 16 (bad %d)", quantum, res.Forwarded, res.BadContent)
		}
	}
}

// TestGuestDeterminismAcrossRuns: the same RTOS image executes the
// identical instruction stream on every run when driven by a
// deterministic host sequence.
func TestGuestDeterminismAcrossRuns(t *testing.T) {
	src := `
main:
    addi s0, zero, 10
loop:
    beqz s0, out
    la   a0, msg
    call k_puts
    addi s0, s0, -1
    j    loop
out:
    halt
.data
msg: .asciz "tick\n"
`
	run := func() (uint64, uint64, string) {
		im, err := rtos.Build(asm.Source{Name: "d.s", Text: src})
		if err != nil {
			t.Fatal(err)
		}
		p := dev.NewPlatform(0, nil)
		if err := im.LoadInto(p.RAM); err != nil {
			t.Fatal(err)
		}
		p.CPU.Reset(im.Entry)
		stop, _ := p.Run(1_000_000)
		if stop != iss.StopHalt {
			t.Fatalf("stop = %v", stop)
		}
		return p.CPU.Instructions(), p.CPU.Cycles(), p.Console.Output()
	}
	i1, c1, o1 := run()
	i2, c2, o2 := run()
	if i1 != i2 || c1 != c2 || o1 != o2 {
		t.Fatalf("nondeterministic guest: (%d,%d) vs (%d,%d)", i1, c1, i2, c2)
	}
	if len(o1) != 10*len("tick\n") {
		t.Fatalf("console = %q", o1)
	}
}

// TestSequentialDebugSessions: a kill ends a stub session and leaves
// its CPU where it stopped, so a fresh stub on the same CPU resumes it
// there.
func TestSequentialDebugSessions(t *testing.T) {
	im, err := asm.Assemble(asm.Options{}, asm.Source{Name: "p.s", Text: `
_start:
    addi s0, zero, 1
mid:
    addi s0, s0, 10
    halt
`})
	if err != nil {
		t.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	_ = im.LoadInto(ram)
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)

	// Session 1: step once, kill.
	t1, err := core.StartGDBTarget(cpu, core.TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	// (client side)
	cl1 := newClient(t, t1)
	if _, err := cl1.Step(); err != nil {
		t.Fatal(err)
	}
	if err := cl1.Kill(); err != nil {
		t.Fatal(err)
	}
	if err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	t1.HostConn.Close()
	if cpu.PC != im.MustSymbol("mid") || cpu.Regs[4] != 1 {
		t.Fatalf("after session 1: pc = %#x, s0 = %d; want mid %#x and 1", cpu.PC, cpu.Regs[4], im.MustSymbol("mid"))
	}

	// Session 2: fresh stub on the same CPU, run to completion.
	t2, err := core.StartGDBTarget(cpu, core.TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	cl2 := newClient(t, t2)
	ev, err := cl2.Continue()
	if err != nil || !ev.Exited {
		t.Fatalf("final stop = %+v, %v", ev, err)
	}
	if cpu.Regs[4] != 11 {
		t.Fatalf("s0 = %d", cpu.Regs[4])
	}
	_ = cl2.Kill()
}

// TestVCDFromCoSimulation: a full co-simulation can be traced to VCD
// and the dump contains value changes of the queue occupancy probes.
func TestVCDFromCoSimulation(t *testing.T) {
	var vcd sbWriter
	_, err := harness.Run(harness.Params{
		Scheme:    harness.DriverKernel,
		Transport: core.TransportPipe,
		SimTime:   2 * sim.MS,
		Delay:     10 * sim.US, // saturate so occupancy actually changes
		Seed:      4,
		Trace:     &vcd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !vcd.contains("$var wire 8") || !vcd.contains("#") {
		t.Fatal("VCD missing variable changes")
	}
}

// --- small helpers ---

type sbWriter struct{ b []byte }

func (w *sbWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *sbWriter) contains(s string) bool {
	return len(s) == 0 || stringsContains(string(w.b), s)
}

func stringsContains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

func newClient(t *testing.T, target *core.GDBTarget) *gdb.Client {
	t.Helper()
	cl, err := gdb.NewClient(target.HostConn)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

package cosim

// Microbenchmarks for the unit costs behind the paper's evaluation (§5):
// the ablations that isolate each design choice's cost, one GDB-Kernel
// stop service, and the ISS loop. cmd/benchtab is the one generator of
// Table 1 and Figure 7 themselves.
//
//	BenchmarkAblationPolling       — A1: lock-step qRun round trip vs the in-kernel stop service
//	BenchmarkStopService           — the unit cost of one GDB-Kernel stop service, per transport
//	BenchmarkISS                   — ns per instruction of the ISS execution loop (alu, loadstore)
//	BenchmarkAblationTransport     — A2: RSP-framed transfer vs raw driver message
//	BenchmarkAblationInterruptGDB  — A3: single-stepping cost (why GDB-Kernel can't do interrupts)

import (
	"io"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/gdb"
	"cosim/internal/iss"
	"cosim/internal/sim"
)

// spinTarget boots a bare-metal guest spinning in a loop, served by a
// GDB stub over tcp, for the ablation microbenchmarks.
func spinTarget(b *testing.B) (*core.GDBTarget, *asm.Image) {
	return bareTarget(b, core.TransportTCP, `
_start:
spin:
    addi s0, s0, 1
    j    spin
`)
}

// bareTarget boots a bare-metal guest served by a GDB stub over tr.
func bareTarget(b *testing.B, tr core.Transport, src string) (*core.GDBTarget, *asm.Image) {
	b.Helper()
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: "guest.s", Text: src})
	if err != nil {
		b.Fatal(err)
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		b.Fatal(err)
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)
	target, err := core.StartGDBTarget(cpu, tr)
	if err != nil {
		b.Fatal(err)
	}
	return target, im
}

// BenchmarkAblationPolling isolates ablation A1: the per-clock-cycle
// synchronization cost. The wrapper pays one qRun RSP round trip
// through the host OS per cycle. The kernel-embedded scheme pays
// nothing per cycle: it has no poll grid, and its kernel-side cost per
// stop, apart from the RSP exchange (BenchmarkStopService), is one
// CallAt that schedules the service and the simulation cycle that runs
// it. That sub-benchmark's ns/op is one such service, doing nothing, in
// a kernel with nothing else attached.
func BenchmarkAblationPolling(b *testing.B) {
	b.Run("wrapper-qRun-roundtrip", func(b *testing.B) {
		target, _ := spinTarget(b)
		cl := gdbClient(b, target)
		defer func() { _ = cl.Kill() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cl.RunQuantum(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel-callat-service", func(b *testing.B) {
		k := sim.NewKernel("ablation")
		defer k.Shutdown()
		const step = 50 * sim.NS
		served := 0
		var serve func()
		serve = func() {
			if served++; served < b.N {
				k.CallAt(k.Now()+step, serve)
			}
		}
		k.CallAt(step, serve)
		b.ReportAllocs()
		b.ResetTimer()
		// Once the last service has run nothing is left: the kernel
		// reports the idle end as ErrDeadlock.
		if err := k.Run(sim.Time(b.N) * step); err != nil && err != sim.ErrDeadlock {
			b.Fatal(err)
		}
		b.StopTimer()
		if served != b.N {
			b.Fatalf("%d services in %d scheduled", served, b.N)
		}
	})
}

// BenchmarkStopService is the unit cost of one GDB-Kernel stop service
// on each transport: the variable transfer and the resume in one write,
// the guest's run to its next breakpoint, and the stub's one write
// holding the transfer's reply and the stop, read inline. The guest
// doubles a request word between two breakpoints, so the stops
// alternate between a 4-byte poke (M) and a 4-byte read (m), as in a
// GDB-Kernel run.
func BenchmarkStopService(b *testing.B) {
	for _, tr := range []core.Transport{core.TransportRing, core.TransportPipe, core.TransportTCP} {
		b.Run(tr.Name(), func(b *testing.B) {
			target, im := bareTarget(b, tr, `
_start:
    la   s0, req
    la   s1, resp
loop:
bp_req:
    lw   a0, 0(s0)
    add  a1, a0, a0
    sw   a1, 0(s1)
bp_resp:
    nop
    j    loop
.data
.align 4
req:  .word 0
resp: .word 0
`)
			cl := gdbClient(b, target)
			bpReq, bpResp := im.MustSymbol("bp_req"), im.MustSymbol("bp_resp")
			req, resp := im.MustSymbol("req"), im.MustSymbol("resp")
			for _, bp := range []uint32{bpReq, bpResp} {
				if err := cl.SetBreakpoint(bp); err != nil {
					b.Fatal(err)
				}
			}
			ev, err := cl.Continue()
			word := []byte{1, 0, 0, 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N && err == nil; i++ {
				if ev.PC == bpReq {
					ev, err = cl.WriteMemoryContinue(req, word)
				} else {
					_, ev, err = cl.ReadMemoryContinue(resp, 4)
				}
			}
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			_ = cl.Kill()
			_ = target.Wait()
		})
	}
}

// BenchmarkISS measures the ISS execution loop (DESIGN.md §5.5) on
// its own. Each sub-benchmark runs exactly b.N instructions of a guest
// loop from a warm decode cache, so ns/op is ns per instruction: alu
// spins on register arithmetic and a jump, loadstore stores and loads
// every width to RAM.
func BenchmarkISS(b *testing.B) {
	for _, bench := range []struct{ name, src string }{
		{"alu", `
_start:
spin:
    addi s0, s0, 1
    add  s1, s1, s0
    addi t0, s1, 7
    j    spin
`},
		{"loadstore", `
_start:
    la   gp, buf
    li   a0, 0x12345678
loop:
    sw   a0, 0(gp)
    lw   a1, 0(gp)
    sh   a1, 4(gp)
    lh   a2, 4(gp)
    sb   a2, 8(gp)
    lbu  a5, 8(gp)
    addi a0, a0, 1
    j    loop
.data
buf: .space 16
`},
	} {
		b.Run(bench.name, func(b *testing.B) {
			im, err := asm.Assemble(asm.Options{DataBase: 0x10000}, asm.Source{Name: bench.name + ".s", Text: bench.src})
			if err != nil {
				b.Fatal(err)
			}
			ram := iss.NewRAM(1 << 20)
			if err := im.LoadInto(ram); err != nil {
				b.Fatal(err)
			}
			cpu := iss.New(iss.NewSystemBus(ram))
			cpu.Reset(im.Entry)
			cpu.Run(1000) // fill the decode cache and touch the data page
			b.ReportAllocs()
			b.ResetTimer()
			stop, n := cpu.Run(uint64(b.N))
			if stop != iss.StopBudget || n != uint64(b.N) {
				b.Fatalf("stop = %v after %d/%d instructions", stop, n, b.N)
			}
		})
	}
}

// gdbClient attaches an RSP client to a target for the ablations.
func gdbClient(b *testing.B, t *core.GDBTarget) *gdb.Client {
	b.Helper()
	cl, err := gdb.NewClient(t.HostConn)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// BenchmarkAblationTransport isolates ablation A2: moving one checksum
// result either through the GDB interface (read memory via an RSP 'm'
// transaction) or as a raw Driver-Kernel protocol message.
func BenchmarkAblationTransport(b *testing.B) {
	b.Run("gdb-m-packet", func(b *testing.B) {
		target, _ := spinTarget(b)
		cl := gdbClient(b, target)
		defer func() { _ = cl.Kill() }()
		b.SetBytes(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.ReadMemory(0x100, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("driver-message", func(b *testing.B) {
		// Encode + decode one WRITE message (the kernel-side work per
		// driver transfer; socket costs are common to both schemes).
		m := core.Message{Type: core.MsgWrite, Cycles: 123, Port: "csum", Data: []byte{1, 2, 3, 4}}
		b.SetBytes(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Encode(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("driver-message-pooled", func(b *testing.B) {
		// The steady-state path the Driver-Kernel scheme actually uses:
		// encode through the pooled scratch buffer, zero allocations.
		m := core.Message{Type: core.MsgWrite, Cycles: 123, Port: "csum", Data: []byte{1, 2, 3, 4}}
		b.SetBytes(4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := core.WriteMessage(io.Discard, m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationInterruptGDB quantifies §4's argument: "Modeling an
// interrupt in the GDB-Kernel scheme would require to stop GDB
// execution at any instruction, thus degrading the performance of
// co-simulation unacceptably". Compare instruction throughput when the
// ISS free-runs in qRun batches of 10 000 instructions against
// single-stepping via RSP.
func BenchmarkAblationInterruptGDB(b *testing.B) {
	b.Run("free-run-chunk", func(b *testing.B) {
		target, _ := spinTarget(b)
		cl := gdbClient(b, target)
		defer func() { _ = cl.Kill() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := cl.RunQuantum(10_000); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(10_000, "instr/op")
	})
	b.Run("single-step-per-instr", func(b *testing.B) {
		target, _ := spinTarget(b)
		cl := gdbClient(b, target)
		defer func() { _ = cl.Kill() }()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(1, "instr/op")
	})
}

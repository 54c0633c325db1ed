package cosim

// Benchmark harness regenerating every table and figure of the paper's
// evaluation (§5), plus ablations isolating the design choices that
// produce the performance differences. Benchmarks use scaled-down
// simulated durations so `go test -bench` stays laptop-friendly;
// cmd/benchtab -full runs the paper-scale durations.
//
//	BenchmarkTable1/*              — Table 1 (wall clock per scheme per simulated time)
//	BenchmarkFigure7/*             — Figure 7 (% forwarded vs inter-packet delay)
//	BenchmarkAblationPolling       — A1: lock-step qRun round trip vs the in-kernel hook before the bound
//	BenchmarkStopService           — the unit cost of one GDB-Kernel stop service, per transport
//	BenchmarkAblationTransport     — A2: RSP-framed transfer vs raw driver message
//	BenchmarkAblationInterruptGDB  — A3: single-stepping cost (why GDB-Kernel can't do interrupts)

import (
	"fmt"
	"io"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/gdb"
	"cosim/internal/harness"
	"cosim/internal/iss"
	"cosim/internal/router"
	"cosim/internal/sim"
)

// benchParams are the common Table 1 / Figure 7 conditions.
func benchParams() harness.Params {
	return harness.Params{
		Transport: core.TransportTCP,
		Delay:     20 * sim.US,
		Seed:      1,
	}
}

// BenchmarkTable1 regenerates Table 1: wall-clock co-simulation time
// for each scheme at increasing simulated durations (scaled: the paper
// used 1000/10000/100000 ms on 2004 hardware; we sweep 2/10/50 ms —
// same workload structure, same scheme ordering).
func BenchmarkTable1(b *testing.B) {
	for _, scheme := range harness.Schemes {
		for _, simTime := range []sim.Time{2 * sim.MS, 10 * sim.MS, 50 * sim.MS} {
			name := fmt.Sprintf("%s/sim=%s", scheme, simTime)
			b.Run(name, func(b *testing.B) {
				p := benchParams()
				p.Scheme = scheme
				p.SimTime = simTime
				for i := 0; i < b.N; i++ {
					res, err := harness.Run(p)
					if err != nil {
						b.Fatal(err)
					}
					if res.Forwarded == 0 {
						b.Fatal("no traffic forwarded")
					}
					b.ReportMetric(float64(res.Forwarded)/float64(b.N), "packets")
				}
			})
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7: the forwarded percentage (as
// a reported metric) for the two proposed schemes across inter-packet
// delays. The Driver-Kernel OS overhead pushes its curve down at small
// delays.
func BenchmarkFigure7(b *testing.B) {
	for _, scheme := range []harness.Scheme{harness.GDBKernel, harness.DriverKernel} {
		for _, delay := range []sim.Time{5 * sim.US, 10 * sim.US, 20 * sim.US, 50 * sim.US, 100 * sim.US} {
			name := fmt.Sprintf("%s/delay=%s", scheme, delay)
			b.Run(name, func(b *testing.B) {
				p := benchParams()
				p.Scheme = scheme
				p.Delay = delay
				p.SimTime = 2 * sim.MS
				var pct float64
				for i := 0; i < b.N; i++ {
					res, err := harness.Run(p)
					if err != nil {
						b.Fatal(err)
					}
					pct = res.ForwardedPct()
				}
				b.ReportMetric(pct, "%forwarded")
			})
		}
	}
}

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

// BenchmarkRunAllTable1 measures the experiment harness itself: the
// same Table 1 sweep executed sequentially and on a worker pool. The
// per-scheme results are identical (each scenario owns its kernel, ISS
// and sockets and is deterministically seeded); only wall clock
// changes, which is the point of `benchtab -parallel`.
func BenchmarkRunAllTable1(b *testing.B) {
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			scens := harness.Table1Scenarios([]sim.Time{2 * sim.MS}, benchParams())
			for i := 0; i < b.N; i++ {
				outs := harness.RunAll(scens, workers)
				if err := harness.FirstError(outs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationInterruptGDB quantifies §4's argument: "Modeling an
// interrupt in the GDB-Kernel scheme would require to stop GDB
// execution at any instruction, thus degrading the performance of
// co-simulation unacceptably". Compare instruction throughput when the
// ISS free-runs under 'c' against single-stepping via RSP.
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

// BenchmarkChecksumGo measures the Go reference checksum (the router
// side of the integrity check).
func BenchmarkChecksumGo(b *testing.B) {
	pkt := &router.Packet{Src: 1, Dst: 2, ID: 3, Payload: make([]uint32, 16)}
	region := pkt.Region()
	b.SetBytes(int64(len(region)))
	for i := 0; i < b.N; i++ {
		_ = router.Checksum16(region)
	}
}

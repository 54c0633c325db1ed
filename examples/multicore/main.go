// Multicore: the "Multi-Processor SoC" of the paper's title — two ISSs
// co-simulated with one SystemC kernel, forming a processing pipeline.
//
// CPU0 runs a checksum stage (as in the router case study); CPU1 runs a
// scrambler stage (XOR whitening). Hardware method processes hand each
// CPU0 result to CPU1 and each CPU1 result to a results FIFO, where a
// checker verifies the pipeline end-to-end. Both CPUs are attached with
// the GDB-Kernel scheme under distinct port names.
//
// Run with: go run ./examples/multicore
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/iss"
	"cosim/internal/sim"
)

// stage0Src computes a 16-bit checksum of a value (CPU0).
const stage0Src = `
_start:
    la   s0, in0
    la   s1, out0
loop:
bp_in:
    lw   a0, 0(s0)
    ; fold the word into 16 bits, ones'-complement style
    srli t0, a0, 16
    andi t1, a0, 0xFFFF
    add  t0, t0, t1
    srli t1, t0, 16
    add  t0, t0, t1
    andi t0, t0, 0xFFFF
    sw   t0, 0(s1)
bp_out:
    nop
    j    loop
.data
.align 4
in0:  .word 0
out0: .word 0
`

// stage1Src scrambles a value with a keyed XOR and rotation (CPU1).
const stage1Src = `
_start:
    la   s0, in1
    la   s1, out1
    li   s2, 0xA5A55A5A
loop:
bp_in:
    lw   a0, 0(s0)
    xor  a0, a0, s2
    slli t0, a0, 7
    srli t1, a0, 25
    or   a0, t0, t1
    sw   a0, 0(s1)
bp_out:
    nop
    j    loop
.data
.align 4
in1:  .word 0
out1: .word 0
`

// scramble mirrors stage1Src for verification.
func scramble(v uint32) uint32 {
	v ^= 0xa5a55a5a
	return v<<7 | v>>25
}

// fold mirrors stage0Src.
func fold(v uint32) uint32 {
	s := (v >> 16) + (v & 0xffff)
	s += s >> 16
	return s & 0xffff
}

// attachCPU boots a guest and couples it to the kernel with GDB-Kernel,
// binding its inVar and outVar variables to the ports name.in and
// name.out.
func attachCPU(k *sim.Kernel, name, src, inVar, outVar string) (*core.GDBKernel, *iss.CPU, error) {
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: name + ".s", Text: src})
	if err != nil {
		return nil, nil, err
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		return nil, nil, err
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)
	target, err := core.StartGDBTarget(cpu, core.TransportPipe)
	if err != nil {
		return nil, nil, err
	}
	g, err := core.NewGDBKernel(k, target.HostConn, im, core.GDBKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: sim.NS},
		Bindings: []core.VarBinding{
			{Port: name + ".in", Var: inVar, Size: 4, Dir: core.ToISS, Label: "bp_in"},
			{Port: name + ".out", Var: outVar, Size: 4, Dir: core.ToSystemC, Label: "bp_out"},
		},
	})
	return g, cpu, err
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run pushes six values through the two-CPU pipeline and checks every
// result against the Go reference models.
func run(w io.Writer) error {
	// Nothing is clocked or polled: each GDB-Kernel services its CPU's
	// stops at the simulated time of their cycle counts.
	k := sim.NewKernel("mpsoc")
	defer k.Shutdown()
	g0, cpu0, err := attachCPU(k, "cpu0", stage0Src, "in0", "out0")
	if err != nil {
		return err
	}
	g1, cpu1, err := attachCPU(k, "cpu1", stage1Src, "in1", "out1")
	if err != nil {
		return err
	}

	in0, _ := k.IssOutPort("cpu0.in")
	out0, _ := k.IssInPort("cpu0.out")
	in1, _ := k.IssOutPort("cpu1.in")
	out1, _ := k.IssInPort("cpu1.out")

	// The pipeline: value -> CPU0 (fold) -> CPU1 (scramble) -> results
	// FIFO -> checker. The feeder's initialization run sends the first
	// value; each CPU1 result makes it queue the result and send the
	// next value.
	inputs := []uint32{0xdeadbeef, 0x12345678, 0x00000001, 0xffffffff, 0xcafef00d, 42}
	results := sim.NewFifo[uint32](k, "results", len(inputs))
	var stage0 uint32
	k.MethodNoInit("cpu0-to-cpu1", func() {
		stage0 = out0.Uint32()
		in1.WriteUint32(stage0)
	}, out0.Event())
	fed := 0
	k.Method("feeder", func() {
		if fed > 0 {
			fmt.Fprintf(w, "t=%-9v %#08x --cpu0--> %#06x --cpu1--> %#08x\n",
				k.Now(), inputs[fed-1], stage0, out1.Uint32())
			results.TryWrite(out1.Uint32())
		}
		if fed < len(inputs) {
			in0.WriteUint32(inputs[fed])
			fed++
		}
	}, out1.Event())

	// The checker verifies the whole pipeline against the Go reference
	// models.
	verified := 0
	var bad error
	k.MethodNoInit("checker", func() {
		for {
			got, ok := results.TryRead()
			if !ok {
				break
			}
			if want := scramble(fold(inputs[verified])); got != want {
				bad = fmt.Errorf("result[%d] = %#x, want %#x", verified, got, want)
				k.Stop()
				return
			}
			verified++
		}
		if verified == len(inputs) {
			k.Stop()
		}
	}, results.DataWritten())

	if err := k.Run(sim.MaxTime); err != nil {
		return err
	}
	k.Shutdown()
	for _, g := range []*core.GDBKernel{g0, g1} {
		if err := g.Err(); err != nil {
			return err
		}
	}
	if bad != nil {
		return bad
	}
	if verified != len(inputs) {
		return fmt.Errorf("verified %d of %d results", verified, len(inputs))
	}
	fmt.Fprintf(w, "\npipeline verified for %d values\n", verified)
	fmt.Fprintf(w, "cpu0 executed %d instructions, cpu1 %d\n",
		cpu0.Instructions(), cpu1.Instructions())
	return nil
}

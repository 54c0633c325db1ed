// Quickstart: the smallest complete ISS–SystemC co-simulation.
//
// A bare-metal FV32 guest program doubles whatever the hardware model
// hands it. The hardware side is a method process in the SystemC-like
// kernel; the two are coupled with the paper's GDB-Kernel scheme: breakpoints
// on the guest's variable accesses, serviced by a hook inside the
// simulation kernel.
//
// Run with: go run ./examples/quickstart
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

// guestSrc is the software side, in FV32 assembly. The breakpoint
// labels mark the co-simulation touchpoints (§3.2 of the paper):
// bp_req is the line that *reads* the request variable (the kernel
// pokes it first), bp_resp is the line *after* the store of the
// response (the kernel reads it then).
const guestSrc = `
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
`

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run co-simulates five requests and checks that the guest answered
// each with its double.
func run(w io.Writer) error {
	// 1. Build the guest and boot an ISS with it.
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: "guest.s", Text: guestSrc})
	if err != nil {
		return err
	}
	ram := iss.NewRAM(1 << 20)
	if err := im.LoadInto(ram); err != nil {
		return err
	}
	cpu := iss.New(iss.NewSystemBus(ram))
	cpu.Reset(im.Entry)

	// 2. Serve the ISS behind a GDB remote-protocol stub (its own
	// goroutine — the "software simulator process").
	target, err := core.StartGDBTarget(cpu, core.TransportPipe)
	if err != nil {
		return err
	}

	// 3. Create the hardware simulation kernel and attach the
	// GDB-Kernel co-simulation scheme. Nothing here is clocked or
	// polled: the scheme reads each breakpoint stop as it resumes the
	// ISS and services it at the simulated time of the stop's cycle
	// count (1ns per guest cycle).
	k := sim.NewKernel("quickstart")
	defer k.Shutdown()
	scheme, err := core.NewGDBKernel(k, target.HostConn, im, core.GDBKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: sim.NS},
		Bindings: []core.VarBinding{
			{Port: "req", Var: "req", Size: 4, Dir: core.ToISS, Label: "bp_req"},
			{Port: "resp", Var: "resp", Size: 4, Dir: core.ToSystemC, Label: "bp_resp"},
		},
	})
	if err != nil {
		return err
	}

	// 4. The hardware model: a method feeding the CPU work. Its
	// initialization run sends the first request; each answer runs it
	// again to print the answer and send the next request.
	req, _ := k.IssOutPort("req")
	resp, _ := k.IssInPort("resp")
	const requests = 5
	var sent uint32
	var answers []uint32
	k.Method("hw", func() {
		if sent > 0 {
			answers = append(answers, resp.Uint32())
			fmt.Fprintf(w, "t=%-8v  hw sent %d, cpu answered %d\n", k.Now(), sent, resp.Uint32())
		}
		if sent == requests {
			k.Stop()
			return
		}
		sent++
		req.WriteUint32(sent)
	}, resp.Event())

	// 5. Run.
	if err := k.Run(sim.MaxTime); err != nil {
		return err
	}
	k.Shutdown()
	if err := scheme.Err(); err != nil {
		return err
	}
	if len(answers) != requests {
		return fmt.Errorf("got %d answers, want %d", len(answers), requests)
	}
	for i, a := range answers {
		if want := 2 * uint32(i+1); a != want {
			return fmt.Errorf("answer %d = %d, want %d", i+1, a, want)
		}
	}
	fmt.Fprintf(w, "guest executed %d instructions; co-sim stats: %+v\n",
		cpu.Instructions(), scheme.Stats())
	return nil
}

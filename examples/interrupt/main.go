// Interrupt: the Driver-Kernel scheme's headline capability (§4) — a
// SystemC device model raising interrupts that are serviced by an ISR
// registered in the RTOS running on the ISS.
//
// A "sensor" hardware model samples a value every 100us of simulated
// time, publishes it on an iss_out port and raises interrupt 5. The
// μKOS guest's ISR wakes the application thread, which READs the sample
// through the device driver, accumulates statistics and WRITEs the
// running maximum back — all through the paper's socket protocol.
//
// Run with: go run ./examples/interrupt
package main

import (
	"fmt"
	"log"
	"os"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/dev"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

const guestSrc = `
.equ INT_SAMPLE, 5

main:
    la   a0, sample_isr
    call cosim_register_isr
    la   a0, banner
    call k_puts

mloop:
wait_sample:
    di
    la   t0, flag
    lw   t1, 0(t0)
    bnez t1, have_sample
    wfi
    ei
    j    wait_sample
have_sample:
    ei
    la   t0, flag
    sw   zero, 0(t0)

    ; read the sample from the SystemC sensor model
    la   a0, port_sample
    addi a1, zero, 6
    la   a2, sample
    addi a3, zero, 4
    call cosim_read

    ; track the running maximum
    la   t0, sample
    lw   t1, 0(t0)
    la   t2, maxval
    lw   t3, 0(t2)
    bgeu t3, t1, not_bigger
    sw   t1, 0(t2)
not_bigger:

    ; report the maximum back to the hardware
    la   a0, port_max
    addi a1, zero, 3
    la   a2, maxval
    addi a3, zero, 4
    call cosim_write
    j    mloop

sample_isr:
    addi t1, zero, INT_SAMPLE
    bne  a0, t1, isr_done
    la   t0, flag
    addi t2, zero, 1
    sw   t2, 0(t0)
isr_done:
    ret

.data
banner:      .asciz "sensor monitor ready\n"
port_sample: .asciz "sample"
port_max:    .asciz "max"
.align 4
flag:   .word 0
sample: .word 0
maxval: .word 0
`

func main() {
	im, err := rtos.Build(asm.Source{Name: "monitor.s", Text: guestSrc})
	if err != nil {
		log.Fatal(err)
	}
	plat := dev.NewPlatform(0, os.Stdout)
	if err := im.LoadInto(plat.RAM); err != nil {
		log.Fatal(err)
	}
	plat.CPU.Reset(im.Entry)

	target, err := core.ConnectDriverTarget(plat, core.TransportPipe)
	if err != nil {
		log.Fatal(err)
	}
	runner := rtos.NewRunner(plat)
	runner.Start()
	defer runner.Stop()

	// The scheme drains the driver's messages at every simulation cycle;
	// a 50ns poll grid gives it the cycles a 100ns clock would have.
	k := sim.NewKernel("sensor-soc")
	if err := k.SetPollGrid(50 * sim.NS); err != nil {
		log.Fatal(err)
	}
	dk, err := core.NewDriverKernel(k, target.DataHost, target.IRQHost, core.DriverKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: 10 * sim.NS, SkewBound: 10 * sim.US},
		Ports: []core.VarBinding{
			{Port: "sample", Dir: core.ToISS},
			{Port: "max", Dir: core.ToSystemC},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	samplePort, _ := k.IssOutPort("sample")
	maxPort, _ := k.IssInPort("max")

	// The sensor model: a pseudo-random waveform sampled every 100us.
	samples := []uint32{17, 4, 99, 23, 56, 142, 8, 141, 77, 3}
	k.Thread("sensor", func(c *sim.Ctx) {
		for i, v := range samples {
			c.WaitTime(100 * sim.US)
			samplePort.WriteUint32(v)
			dk.RaiseInterrupt(5)
			c.Wait(maxPort.Event())
			fmt.Printf("t=%-8v sample[%d]=%-4d guest reports max=%d\n",
				c.Now(), i, v, maxPort.Uint32())
		}
		k.Stop()
	})

	if err := k.Run(sim.MaxTime); err != nil {
		log.Fatal(err)
	}
	k.Shutdown()
	if err := dk.Err(); err != nil {
		log.Fatal(err)
	}
	if got := maxPort.Uint32(); got != 142 {
		log.Fatalf("final max = %d, want 142", got)
	}
	fmt.Printf("\n%d interrupts were raised by hardware and serviced by the guest ISR\n",
		dk.Stats().IntsNotified)
	fmt.Printf("guest console: %q\n", plat.Console.Output())
}

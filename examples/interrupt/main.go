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
	"io"
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
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run co-simulates ten sensor samples and checks that the guest
// serviced an interrupt for each and reports the maximum, 142.
func run(w io.Writer) error {
	im, err := rtos.Build(asm.Source{Name: "monitor.s", Text: guestSrc})
	if err != nil {
		return err
	}
	plat := dev.NewPlatform(0, w)
	if err := im.LoadInto(plat.RAM); err != nil {
		return err
	}
	plat.CPU.Reset(im.Entry)

	target, err := core.ConnectDriverTarget(plat, core.TransportPipe)
	if err != nil {
		return err
	}
	// The kernel runs the guest up to each of its events: the sensor's
	// ticks and the times the guest sends. The monitor stops the run at
	// the last answer; a no-op call at end bounds it if the guest stops
	// answering.
	const end = 10 * sim.MS
	k := sim.NewKernel("sensor-soc")
	defer k.Shutdown()
	k.CallAt(end, func() {})
	dk, err := core.NewDriverKernel(k, []core.DriverChannel{{
		Data: target.DataHost, IRQ: target.IRQHost, Guest: plat,
		Ports: []core.VarBinding{
			{Port: "sample", Dir: core.ToISS},
			{Port: "max", Dir: core.ToSystemC},
		},
	}}, core.DriverKernelOptions{
		CommonOptions: core.CommonOptions{CPUPeriod: 10 * sim.NS},
	})
	if err != nil {
		return err
	}

	samplePort, _ := k.IssOutPort("sample")
	maxPort, _ := k.IssInPort("max")

	// The sensor model: a pseudo-random waveform sampled 100us after
	// the start and 100us after each answer. One method publishes the
	// sample and raises the interrupt; another reports the answer and
	// arms the next sample.
	samples := []uint32{17, 4, 99, 23, 56, 142, 8, 141, 77, 3}
	next := 0
	tick := k.NewEvent("sensor.tick")
	k.MethodNoInit("sensor", func() {
		samplePort.WriteUint32(samples[next])
		dk.RaiseInterruptCPU(0, 5)
	}, tick)
	k.MethodNoInit("monitor", func() {
		fmt.Fprintf(w, "t=%-8v sample[%d]=%-4d guest reports max=%d\n",
			k.Now(), next, samples[next], maxPort.Uint32())
		if next++; next == len(samples) {
			k.Stop()
			return
		}
		tick.NotifyAfter(100 * sim.US)
	}, maxPort.Event())
	tick.NotifyAfter(100 * sim.US)

	if err := k.Run(end); err != nil {
		return err
	}
	k.Shutdown()
	if err := dk.Err(); err != nil {
		return err
	}
	if got := maxPort.Uint32(); got != 142 {
		return fmt.Errorf("final max = %d, want 142", got)
	}
	if n := dk.Stats().IntsNotified; n != uint64(len(samples)) {
		return fmt.Errorf("%d interrupts notified, want %d", n, len(samples))
	}
	fmt.Fprintf(w, "\n%d interrupts were raised by hardware and serviced by the guest ISR\n",
		dk.Stats().IntsNotified)
	fmt.Fprintf(w, "guest console: %q\n", plat.Console.Output())
	return nil
}

package rtos

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cosim/internal/dev"
	"cosim/internal/iss"
)

// Tests of inline runs: a CosimDev pump that delivers a frame to a
// guest parked in WFI runs the guest itself (dev.Platform.RunGuest).

// connectPipes wires the platform's co-simulation device to two
// in-process pipes and returns the host ends (data, interrupt).
func connectPipes(t *testing.T, p *dev.Platform) (hostData, hostIRQ net.Conn) {
	t.Helper()
	hostData, guestData := net.Pipe()
	hostIRQ, guestIRQ := net.Pipe()
	t.Cleanup(func() {
		hostData.Close()
		hostIRQ.Close()
	})
	p.Cosim.ConnectData(guestData, guestData)
	p.Cosim.ConnectIRQ(guestIRQ)
	return hostData, hostIRQ
}

// sendIRQ writes one interrupt id on the host end of the interrupt
// channel.
func sendIRQ(t *testing.T, hostIRQ net.Conn, id uint32) {
	t.Helper()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	if err := hostIRQ.SetWriteDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := hostIRQ.Write(b[:]); err != nil {
		t.Fatalf("send interrupt %d: %v", id, err)
	}
}

// parkByHand runs the guest as its runner would until it parks in
// WFI, without starting a Runner: afterwards only a pump can run it.
func parkByHand(t *testing.T, p *dev.Platform) {
	t.Helper()
	for i := 0; p.RunGuest(runnerQuantum) != iss.StopIdle; i++ {
		if i == 100 {
			t.Fatalf("guest never parked in WFI (pc=%#x)", p.CPU.PC)
		}
	}
}

// waitStop polls the platform's latest stop until it is want.
func waitStop(t *testing.T, p *dev.Platform, want iss.Stop) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.LastStop() != want {
		if time.Now().After(deadline) {
			t.Fatalf("latest stop %v, want %v", p.LastStop(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// reportingGuest parks in WFI forever; its ISR reports each interrupt
// id with a WRITE on port "seen".
const reportingGuest = `
main:
    la   a0, my_isr
    call cosim_register_isr
park:
    wfi
    j    park

my_isr:
    addi sp, sp, -16
    sw   ra, 0(sp)
    la   t0, got
    sw   a0, 0(t0)
    la   a0, port
    addi a1, zero, 4
    la   a2, got
    addi a3, zero, 4
    call cosim_write
    lw   ra, 0(sp)
    addi sp, sp, 16
    ret

.data
port: .asciz "seen"
.align 4
got: .word 0
`

// With no Runner at all, only the interrupt pump can run the parked
// guest: the ISR's report proves the pump ran it, and the guest parks
// again afterwards.
func TestInlineRunTakesIRQOnPump(t *testing.T) {
	p, im := buildPlatform(t, reportingGuest)
	hostData, hostIRQ := connectPipes(t, p)
	parkByHand(t, p)
	before := p.CPU.Instructions()

	for _, id := range []uint32{7, 9} {
		sendIRQ(t, hostIRQ, id)
		mt, name, data := readMessage(t, hostData)
		if mt != 1 || name != "seen" || len(data) != 4 || binary.LittleEndian.Uint32(data) != id {
			t.Fatalf("report of interrupt %d: type=%d name=%q data=% x", id, mt, name, data)
		}
	}
	waitStop(t, p, iss.StopIdle)
	p.Unpark() // waits out the inline run before the CPU is read
	if p.CPU.Instructions() == before {
		t.Fatal("no instructions ran after the guest parked")
	}
	if got := peekWord(t, p, im, "got"); got != 9 {
		t.Fatalf("isr saw id %d last, want 9", got)
	}
}

// busyGuest spins 2×InlineBudget instructions for every interrupt its
// ISR counts, parking in WFI in between, and halts after busyRounds
// rounds.
const busyRounds = 5

var busyGuest = fmt.Sprintf(`
main:
    la   a0, my_isr
    call cosim_register_isr
park:
    di
    la   t0, work
    lw   t1, 0(t0)
    bnez t1, busy
    wfi
    ei
    j    park
busy:
    addi t1, t1, -1
    sw   t1, 0(t0)
    ei
    li   t2, %d
spin:
    addi t2, t2, -1
    bnez t2, spin
    la   t0, rounds
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    addi t3, zero, %d
    blt  t1, t3, park
    halt

my_isr:
    la   t0, work
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    la   t0, taken
    lw   t1, 0(t0)
    add  t1, t1, a0
    sw   t1, 0(t0)
    ret

.data
.align 4
work:   .word 0
rounds: .word 0
taken:  .word 0
`, dev.InlineBudget, busyRounds)

// Each interrupt makes the guest busy past the inline budget, so the
// pump hands it back and the Runner finishes it; the interrupts sent
// meanwhile are all taken.
func TestInlineRunHandsBusyGuestToRunner(t *testing.T) {
	p, im := buildPlatform(t, busyGuest)
	_, hostIRQ := connectPipes(t, p)
	r := NewRunner(p)
	r.Start()
	defer r.Stop()
	waitParked(t, r)

	var sum uint32
	for id := uint32(1); id <= busyRounds; id++ {
		sendIRQ(t, hostIRQ, id)
		sum += id
	}
	done := make(chan iss.Stop, 1)
	go func() { done <- r.Wait() }()
	select {
	case stop := <-done:
		if stop != iss.StopHalt {
			t.Fatalf("stop = %v (pc=%#x)", stop, p.CPU.PC)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a guest busy past the inline budget was never finished")
	}
	if got := peekWord(t, p, im, "taken"); got != sum {
		t.Fatalf("ISR took ids summing to %d, want %d", got, sum)
	}
	if got := peekWord(t, p, im, "rounds"); got != busyRounds {
		t.Fatalf("%d busy rounds, want %d", got, busyRounds)
	}
}

// countingGuest parks in WFI forever; its ISR counts interrupts.
const countingGuest = `
main:
    la   a0, my_isr
    call cosim_register_isr
park:
    wfi
    j    park

my_isr:
    la   t0, count
    lw   t1, 0(t0)
    addi t1, t1, 1
    sw   t1, 0(t0)
    ret

.data
.align 4
count: .word 0
`

// Stop returns only once no goroutine runs the guest, although the
// interrupt pump keeps delivering frames: under -race, reading the CPU
// afterwards would report a run still in flight. Closing the channels
// then ends the pumps, so no goroutine outlives the run.
func TestInlineRunStopWaitsItOut(t *testing.T) {
	before := runtime.NumGoroutine()
	p, im := buildPlatform(t, countingGuest)
	hostData, hostIRQ := connectPipes(t, p)
	r := NewRunner(p)
	r.Start()
	waitParked(t, r)

	// The host keeps sending interrupts; each send returns once the pump
	// has read the id, so sent counts frames the pump delivered.
	var sent atomic.Int64
	quit := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], 3)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if _, err := hostIRQ.Write(b[:]); err != nil {
				return
			}
			sent.Add(1)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sent.Load() < 100 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d interrupts delivered", sent.Load())
		}
		time.Sleep(100 * time.Microsecond)
	}
	r.Stop()
	n1 := p.CPU.Instructions()
	time.Sleep(5 * time.Millisecond) // the pump still delivers meanwhile
	if n2 := p.CPU.Instructions(); n2 != n1 {
		t.Fatalf("guest ran after Stop returned: %d -> %d instructions", n1, n2)
	}
	if got := peekWord(t, p, im, "count"); got == 0 {
		t.Fatal("no interrupt was taken before Stop")
	}

	close(quit)
	hostData.Close()
	hostIRQ.Close()
	<-senderDone
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after teardown, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// A HALT reached during an inline run is the guest's last stop: the
// platform reports it, a Runner started afterwards returns it at once
// from Wait, and a Runner parked while it happens ends as well.
func TestInlineRunHaltEndsWait(t *testing.T) {
	t.Run("runner-started-after", func(t *testing.T) {
		p, im := buildPlatform(t, parkedGuest)
		_, hostIRQ := connectPipes(t, p)
		parkByHand(t, p)
		sendIRQ(t, hostIRQ, 5)
		waitStop(t, p, iss.StopHalt) // no Runner yet: the pump ran the guest

		r := NewRunner(p)
		r.Start()
		defer r.Stop()
		select {
		case <-waitChan(r):
		case <-time.After(5 * time.Second):
			t.Fatal("Wait did not see the halt of an inline run")
		}
		if stop := r.LastStop(); stop != iss.StopHalt {
			t.Fatalf("Wait = %v, want halt", stop)
		}
		if got := peekWord(t, p, im, "got"); got != 5 {
			t.Fatalf("isr saw id %d, want 5", got)
		}
	})
	t.Run("runner-parked", func(t *testing.T) {
		p, _ := buildPlatform(t, parkedGuest)
		_, hostIRQ := connectPipes(t, p)
		r := NewRunner(p)
		r.Start()
		defer r.Stop()
		waitParked(t, r)
		sendIRQ(t, hostIRQ, 5)
		select {
		case <-waitChan(r):
		case <-time.After(5 * time.Second):
			t.Fatal("a halt delivered by the pump did not end Wait")
		}
		if stop := r.LastStop(); stop != iss.StopHalt {
			t.Fatalf("Wait = %v, want halt", stop)
		}
	})
}

// waitChan closes once r.Wait returns.
func waitChan(r *Runner) <-chan struct{} {
	c := make(chan struct{})
	go func() {
		r.Wait()
		close(c)
	}()
	return c
}

// Teardown closes the channels, then stops the runner. The goroutine
// running the guest (a pump, inline, or the runner) is blocked in a
// guest write that nothing finishes reading; the close releases it, so
// Stop returns.
func TestInlineRunTeardownReleasesBlockedWrite(t *testing.T) {
	p, _ := buildPlatform(t, reportingGuest)
	hostData, hostIRQ := connectPipes(t, p) // nothing reads hostData
	r := NewRunner(p)
	r.Start()
	waitParked(t, r)
	sendIRQ(t, hostIRQ, 1)
	// Take the report's size word only: the rest of the write, and so
	// the goroutine running the guest, stays blocked.
	var size [4]byte
	if err := hostData.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFull(hostData, size[:]); err != nil {
		t.Fatalf("read the report's size: %v", err)
	}

	stopped := make(chan struct{})
	go func() {
		hostData.Close()
		hostIRQ.Close()
		r.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("teardown deadlocked with a guest write blocked in an inline run")
	}
}

package rtos

import (
	"testing"

	"cosim/internal/asm"
	"cosim/internal/dev"
	"cosim/internal/iss"
)

// TestInterCPUMailbox runs two uKOS instances on two platforms joined
// by the mailbox device: CPU A sends 1,2,3; CPU B's ISR echoes each
// value plus one; A's ISR accumulates the replies — a complete
// dual-processor interrupt-driven exchange.
func TestInterCPUMailbox(t *testing.T) {
	senderSrc := `
.equ MBOX, 0xF0004000
main:
    la   a0, reply_isr
    call k_register_mbox_isr
    addi s0, zero, 1
send_next:
    addi t0, zero, 4
    bge  s0, t0, finished      ; send 1, 2, 3
    la   t1, MBOX
    sw   s0, 0(t1)             ; MBSend -> CPU B
    addi s0, s0, 1
wait_reply:
    di
    la   t0, got_flag
    lw   t1, 0(t0)
    bnez t1, have_reply
    wfi
    ei
    j    wait_reply
have_reply:
    ei
    la   t0, got_flag
    sw   zero, 0(t0)
    j    send_next
finished:
    halt

reply_isr:
    la   t0, MBOX
    lw   t1, 4(t0)             ; MBRecv
    la   t2, sum
    lw   t3, 0(t2)
    add  t3, t3, t1
    sw   t3, 0(t2)
    la   t0, got_flag
    addi t1, zero, 1
    sw   t1, 0(t0)
    ret

.data
.align 4
got_flag: .word 0
sum:      .word 0
`
	echoSrc := `
.equ MBOX, 0xF0004000
main:
    la   a0, echo_isr
    call k_register_mbox_isr
spin:
    wfi
    j    spin

echo_isr:
    la   t0, MBOX
eloop:
    lw   t1, 8(t0)             ; MBAvail
    beqz t1, edone
    lw   t1, 4(t0)             ; MBRecv
    addi t1, t1, 1
    sw   t1, 0(t0)             ; MBSend (reply)
    j    eloop
edone:
    ret
`
	imA, err := Build(asm.Source{Name: "sender.s", Text: senderSrc})
	if err != nil {
		t.Fatal(err)
	}
	imB, err := Build(asm.Source{Name: "echo.s", Text: echoSrc})
	if err != nil {
		t.Fatal(err)
	}

	pa := dev.NewPlatform(0, nil)
	pb := dev.NewPlatform(0, nil)
	ma, mb := dev.NewMailboxPair(pa.PIC, dev.MailboxLine, pb.PIC, dev.MailboxLine)
	pa.AttachMailbox(ma)
	pb.AttachMailbox(mb)

	if err := imA.LoadInto(pa.RAM); err != nil {
		t.Fatal(err)
	}
	if err := imB.LoadInto(pb.RAM); err != nil {
		t.Fatal(err)
	}
	pa.CPU.Reset(imA.Entry)
	pb.CPU.Reset(imB.Entry)

	// The two CPUs run in alternating slices of 1 000 cycles, so each
	// sees the other's mailbox writes at most a slice late.
	stop := dev.StopKeepGoing
	for slice := uint64(1); stop == dev.StopKeepGoing || stop == iss.StopYield; slice++ {
		if slice > 10_000 {
			sumAddr, _ := imA.Symbol("sum")
			v, _ := pa.RAM.Read(sumAddr, 4)
			t.Fatalf("sender never finished (pc=%#x sleeping=%v sum=%d)", pa.CPU.PC, pa.CPU.Sleeping(), v)
		}
		stop = pa.RunTo(slice * 1000)
		pb.RunTo(slice * 1000)
	}
	if stop != iss.StopHalt {
		t.Fatalf("sender stopped with %v (pc=%#x)", stop, pa.CPU.PC)
	}

	sum, err := pa.RAM.Read(imA.MustSymbol("sum"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 2+3+4 {
		t.Fatalf("sum = %d, want 9", sum)
	}
}

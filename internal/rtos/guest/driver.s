; =====================================================================
; uKOS co-simulation device driver (the paper's Driver-Kernel scheme,
; software side).
;
; The driver exchanges the paper's READ/WRITE messages with the SystemC
; kernel through the memory-mapped CosimDev bridge, which forwards them
; on the data socket (port 4444) and queues interrupt notifications
; from the interrupt socket (port 4445).
;
; Wire format (little-endian words):
;   WRITE (driver -> SystemC): [size][type=1][cycles][namelen][name...][datalen][data...]
;   READ  (driver -> SystemC): [size][type=2][cycles][namelen][name...]
;   DATA  (SystemC -> driver): [size][type=3][datalen][data...]
; 'size' counts the bytes that follow the size word. Port names select
; the SystemC iss_in (WRITE) or iss_out (READ) port, as in Figure 4.
; 'cycles' is the guest cycle counter as the message is composed; the
; kernel journals it and delivers at the guest's time of the flush.
;
; Public API (regular calls, FV32 ABI):
;   cosim_write(a0=name, a1=namelen, a2=data, a3=datalen)
;   cosim_read (a0=name, a1=namelen, a2=buf,  a3=buflen) -> a0 = datalen
;   cosim_register_isr(a0=handler)   handler(a0=interrupt id)
; =====================================================================

; ---- CosimDev registers ----
.equ CS_TXBYTE,  0x00
.equ CS_TXWORD,  0x04
.equ CS_TXFLUSH, 0x08
.equ CS_RXBYTE,  0x0C
.equ CS_RXWORD,  0x10
.equ CS_RXAVAIL, 0x14
.equ CS_INTNUM,  0x18
.equ CS_INTACK,  0x1C
.equ CS_RXIEN,   0x20

; ---- message types ----
.equ MSG_WRITE, 1
.equ MSG_READ,  2
.equ MSG_DATA,  3

; ---- reserved interrupt ids ----
.equ INT_NONE,       0xFFFFFFFF
.equ INT_DATA_READY, 0xFFFFFFF0

.text

; ---------------------------------------------------------------------
; cosim_write(a0=name, a1=namelen, a2=data, a3=datalen)
; ---------------------------------------------------------------------
cosim_write:
    la   t0, COSIM_BASE
    ; size = type(4) + cycles(4) + namelen-field(4) + name + datalen-field(4) + data
    addi t1, a1, 16
    add  t1, t1, a3
    sw   t1, CS_TXWORD(t0)
    addi t2, zero, MSG_WRITE
    sw   t2, CS_TXWORD(t0)
    mfsr t2, cycle
    sw   t2, CS_TXWORD(t0)
    sw   a1, CS_TXWORD(t0)
    mv   t3, a0
    mv   t4, a1
cw_name:
    beqz t4, cw_name_done
    lbu  t5, 0(t3)
    sw   t5, CS_TXBYTE(t0)
    addi t3, t3, 1
    addi t4, t4, -1
    j    cw_name
cw_name_done:
    sw   a3, CS_TXWORD(t0)
    mv   t3, a2
    mv   t4, a3
cw_data:
    beqz t4, cw_data_done
    lbu  t5, 0(t3)
    sw   t5, CS_TXBYTE(t0)
    addi t3, t3, 1
    addi t4, t4, -1
    j    cw_data
cw_data_done:
    sw   zero, CS_TXFLUSH(t0)
    ret

; ---------------------------------------------------------------------
; cosim_read(a0=name, a1=namelen, a2=buf, a3=buflen) -> a0 = datalen
;
; Sends a READ request, then sleeps in WFI until the DATA reply is
; complete. Interrupts are disabled around the availability check so a
; wakeup between check and WFI cannot be lost (WFI falls through when
; an interrupt is pending even with IE=0).
; ---------------------------------------------------------------------
cosim_read:
    la   t0, COSIM_BASE
    addi t1, a1, 12               ; size = type + cycles + namelen-field + name
    sw   t1, CS_TXWORD(t0)
    addi t2, zero, MSG_READ
    sw   t2, CS_TXWORD(t0)
    mfsr t2, cycle
    sw   t2, CS_TXWORD(t0)
    sw   a1, CS_TXWORD(t0)
    mv   t3, a0
    mv   t4, a1
cr_name:
    beqz t4, cr_name_done
    lbu  t5, 0(t3)
    sw   t5, CS_TXBYTE(t0)
    addi t3, t3, 1
    addi t4, t4, -1
    j    cr_name
cr_name_done:
    sw   zero, CS_TXFLUSH(t0)

    ; Wait for the size word of the reply. Each iteration re-arms the
    ; RX-available level interrupt (the dispatcher disarms it when it
    ; fires) so a reply racing ahead of its DATA_READY notification on
    ; the other socket can never be missed, and the level cannot storm.
cr_poll_hdr:
    di
    addi t1, zero, 1
    sw   t1, CS_RXIEN(t0)
    lw   t5, CS_RXAVAIL(t0)
    addi t6, zero, 4
    bge  t5, t6, cr_have_hdr
    wfi
    ei                            ; take + acknowledge the interrupt
    j    cr_poll_hdr
cr_have_hdr:
    sw   zero, CS_RXIEN(t0)
    ei
    lw   t7, CS_RXWORD(t0)        ; size (bytes after this word)

    ; wait for the full reply body
cr_poll_body:
    di
    addi t1, zero, 1
    sw   t1, CS_RXIEN(t0)
    lw   t5, CS_RXAVAIL(t0)
    bge  t5, t7, cr_have_body
    wfi
    ei
    j    cr_poll_body
cr_have_body:
    sw   zero, CS_RXIEN(t0)
    ei
    lw   t6, CS_RXWORD(t0)        ; type (MSG_DATA, unchecked here)
    lw   t8, CS_RXWORD(t0)        ; datalen

    ; copy min(datalen, buflen) into buf, draining the remainder
    mv   t9, a2
    mv   t10, zero
cr_copy:
    bge  t10, t8, cr_done
    lw   t5, CS_RXBYTE(t0)
    bge  t10, a3, cr_skip         ; beyond caller's buffer: drop
    sb   t5, 0(t9)
    addi t9, t9, 1
cr_skip:
    addi t10, t10, 1
    j    cr_copy
cr_done:
    mv   a0, t8
    ret

; ---------------------------------------------------------------------
; cosim_register_isr(a0 = handler): installs the driver's interrupt
; dispatcher on the kernel's co-simulation line and records the user
; handler, which is called with the interrupt id in a0.
; ---------------------------------------------------------------------
cosim_register_isr:
    la   t0, drv_user_isr
    sw   a0, 0(t0)
    la   a0, drv_isr
    j    k_register_cosim_isr     ; tail call; returns to our caller

; ---------------------------------------------------------------------
; drv_isr: kernel-level dispatcher for the co-simulation line. Drains
; all queued interrupt ids: DATA_READY just acknowledges (cosim_read's
; WFI loop rechecks availability); user ids invoke the registered
; handler.
; ---------------------------------------------------------------------
drv_isr:
    addi sp, sp, -16
    sw   ra, 0(sp)
    sw   s0, 4(sp)
    la   s0, COSIM_BASE
di_loop:
    lw   t1, CS_INTNUM(s0)
    li   t2, INT_NONE
    beq  t1, t2, di_done
    li   t2, INT_DATA_READY
    beq  t1, t2, di_ack
    ; user interrupt: dispatch
    la   t3, drv_user_isr
    lw   t4, 0(t3)
    beqz t4, di_ack
    mv   a0, t1
    jalr ra, t4, 0
di_ack:
    sw   zero, CS_INTACK(s0)
    j    di_loop
di_done:
    ; If the wake came from the RX-available level (no queued id),
    ; disarm it so the level cannot re-trap with no forward progress;
    ; the read loop re-arms it on its next iteration.
    sw   zero, CS_RXIEN(s0)
    lw   ra, 0(sp)
    lw   s0, 4(sp)
    addi sp, sp, 16
    ret

.data
drv_user_isr: .word 0

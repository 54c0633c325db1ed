package dev

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Driver-Kernel wire values the device must recognise to intercept
// guest frames for DMI windows. They mirror internal/core's MsgWrite/
// MsgRead/MsgData — dev sits below core in the import graph (core
// wires platforms to transports), so the constants are restated here,
// exactly as the guest driver assembly restates them.
const (
	cosimMsgWrite = 1
	cosimMsgRead  = 2
	cosimMsgData  = 3
)

// CosimDev register offsets.
const (
	CosimTxByte  = 0x00 // WO: append one byte to the outgoing message
	CosimTxWord  = 0x04 // WO: append 4 bytes (little-endian)
	CosimTxFlush = 0x08 // WO: transmit the buffered message on the data socket
	CosimRxByte  = 0x0c // RO: pop one received byte
	CosimRxWord  = 0x10 // RO: pop 4 received bytes (little-endian)
	CosimRxAvail = 0x14 // RO: received bytes available
	CosimIntNum  = 0x18 // RO: oldest pending co-simulation interrupt id, NoInt if none
	CosimIntAck  = 0x1c // WO: acknowledge the oldest pending interrupt
	CosimRxIEn   = 0x20 // RW: bit0 = raise the PIC line while RX data is available
	CosimDevSize = 0x24
)

// NoInt is returned by CosimIntNum when no interrupt is pending.
const NoInt = 0xffffffff

// CosimDev is the ISS-side end of the Driver-Kernel co-simulation
// transport. The RTOS device driver composes the paper's READ/WRITE
// messages and pushes them through this device onto the data socket
// (port 4444 in the paper); interrupt notifications arriving on the
// interrupt socket (port 4445) are queued here and asserted on the PIC.
//
// The device plays the role of the eCos synthetic target's host I/O
// layer: the guest performs plain MMIO, the host side speaks sockets.
// The device's PIC line is level-driven: it is held high while queued
// interrupt ids are pending, or — when the guest enables CosimRxIEn —
// while receive data is available. The RX-available level closes the
// race between the interrupt socket and the data socket: a wakeup can
// never be lost between "check availability" and "wait for interrupt".
type CosimDev struct {
	tx []byte
	// rx[rxHead:] are the received bytes not yet read. Once they drain,
	// rx restarts at its storage base, so the buffer is reused.
	rx      []byte
	rxHead  int
	ints    []uint32
	rxIntEn bool
	level   bool // the PIC line level last driven

	data io.Writer
	pic  *PIC
	line int
	name string // "cosim" or "cosim<n>" for CPU n of a multi-processor SoC

	// windows holds the kernel-granted DMI windows by port name. A
	// flushed guest frame whose port has a valid window is served
	// locally; everything else goes to the data socket unchanged.
	windows map[string]*Window
	// reply builds the DATA reply a window READ synthesises; InjectRx
	// copies it out. buildReplyFn is buildReply, bound once: a method
	// value made per READ would allocate.
	reply        []byte
	buildReplyFn func(data []byte)

	// yield, when set, runs after every flush: NewPlatform sets it to
	// the CPU's Yield, so the CPU hands control back to whoever runs it
	// right after the guest sent a frame or used a window.
	yield func()

	sent uint64 // bytes flushed to the data socket

	// dataR and irqR are the guest ends of the data and interrupt
	// sockets; Receive reads them through in, a reused scratch buffer.
	dataR, irqR io.Reader
	in          []byte
}

// NewCosimDev creates the bridge device asserting the given PIC line.
func NewCosimDev(pic *PIC, line int) *CosimDev {
	d := &CosimDev{pic: pic, line: line, name: "cosim"}
	d.buildReplyFn = d.buildReply
	return d
}

// SetInstance labels the device with its CPU index in a multi-processor
// SoC so its errors name the guest they came from; instance 0 keeps the
// plain single-CPU name.
func (d *CosimDev) SetInstance(n int) {
	if n == 0 {
		d.name = "cosim"
	} else {
		d.name = fmt.Sprintf("cosim%d", n)
	}
}

// Name implements iss.Device.
func (d *CosimDev) Name() string { return d.name }

// Size implements iss.Device.
func (d *CosimDev) Size() uint32 { return CosimDevSize }

// refresh drives the PIC line from the device state when its level
// changes. The PIC holds a level until it is changed, so an unchanged
// level needs no PIC traffic.
func (d *CosimDev) refresh() {
	level := len(d.ints) > 0 || (d.rxIntEn && d.rxLen() > 0)
	if level == d.level {
		return
	}
	d.level = level
	if level {
		d.pic.Assert(d.line)
	} else {
		d.pic.Deassert(d.line)
	}
}

// rxLen is the number of received bytes not yet read.
func (d *CosimDev) rxLen() int { return len(d.rx) - d.rxHead }

// popRx removes and returns the oldest received byte; callers have
// checked that one is pending.
func (d *CosimDev) popRx() byte {
	v := d.rx[d.rxHead]
	d.rxHead++
	if d.rxHead == len(d.rx) {
		d.rx, d.rxHead = d.rx[:0], 0
	}
	return v
}

// ConnectData attaches the data socket. Writes flushed by the guest go
// to w; Receive reads the bytes the kernel sent from r, which then
// become readable through CosimRxByte. Reattaching the data socket is a
// device reconfiguration: every granted DMI window is revoked, so a
// stale grant can never serve reads that belong on the new connection.
func (d *CosimDev) ConnectData(r io.Reader, w io.Writer) {
	d.dataR, d.data = r, w
	d.RevokeDMIWindows()
}

// GrantDMIWindow implements DMIGranter: guest frames naming port are
// served from w when possible. Granting over an existing window
// revokes the old grant.
func (d *CosimDev) GrantDMIWindow(port string, w *Window) {
	if d.windows == nil {
		d.windows = make(map[string]*Window)
	}
	if old := d.windows[port]; old != nil {
		old.Revoke()
	}
	d.windows[port] = w
}

// RevokeDMIWindows implements DMIGranter.
func (d *CosimDev) RevokeDMIWindows() {
	for _, w := range d.windows {
		w.Revoke()
	}
	d.windows = nil
}

// ConnectIRQ attaches the interrupt socket: Receive reads 4-byte
// little-endian interrupt ids from r, each queued and asserted on the
// PIC line.
func (d *CosimDev) ConnectIRQ(r io.Reader) { d.irqR = r }

// Receive takes data bytes off the data socket and irq bytes (irq/4
// interrupt ids) off the interrupt socket, on the caller's goroutine,
// and queues them as the guest will see them. The kernel calls it with
// exactly what it sent, before it runs the guest.
func (d *CosimDev) Receive(data, irq uint64) error {
	if uint64(cap(d.in)) < max(data, 4) {
		d.in = make([]byte, max(data, 4))
	}
	if data > 0 {
		b := d.in[:data]
		if _, err := io.ReadFull(d.dataR, b); err != nil {
			return fmt.Errorf("%s: data socket: %w", d.name, err)
		}
		d.InjectRx(b)
	}
	for b := d.in[:4]; irq >= 4; irq -= 4 {
		if _, err := io.ReadFull(d.irqR, b); err != nil {
			return fmt.Errorf("%s: interrupt socket: %w", d.name, err)
		}
		d.InjectIRQ(binary.LittleEndian.Uint32(b))
	}
	return nil
}

// Sent returns how many bytes the guest has flushed to the data socket.
func (d *CosimDev) Sent() uint64 { return d.sent }

// InjectRx appends bytes to the receive buffer directly (in-process
// transports and tests).
func (d *CosimDev) InjectRx(b []byte) {
	d.rx = append(d.rx, b...)
	d.refresh()
}

// InjectIRQ queues a co-simulation interrupt directly.
func (d *CosimDev) InjectIRQ(id uint32) {
	d.ints = append(d.ints, id)
	d.refresh()
}

// parseGuestFrame decodes a driver-composed READ/WRITE frame so the
// flush path can match it against a granted window. Anything that is
// not a well-formed, exactly-sized READ or WRITE frame returns !ok and
// goes to the socket untouched — the window path must never guess.
func parseGuestFrame(out []byte) (typ, cycles uint32, port, data []byte, ok bool) {
	le := binary.LittleEndian
	if len(out) < 16 || int(le.Uint32(out[0:4]))+4 != len(out) {
		return 0, 0, nil, nil, false
	}
	typ = le.Uint32(out[4:8])
	cycles = le.Uint32(out[8:12])
	nameLen := int(le.Uint32(out[12:16]))
	rest := out[16:]
	if nameLen > len(rest) {
		return 0, 0, nil, nil, false
	}
	port, rest = rest[:nameLen], rest[nameLen:]
	switch typ {
	case cosimMsgRead:
		if len(rest) != 0 {
			return 0, 0, nil, nil, false
		}
		return typ, cycles, port, nil, true
	case cosimMsgWrite:
		if len(rest) < 4 {
			return 0, 0, nil, nil, false
		}
		dataLen := int(le.Uint32(rest[0:4]))
		rest = rest[4:]
		if dataLen != len(rest) {
			return 0, 0, nil, nil, false
		}
		return typ, cycles, port, rest, true
	}
	return 0, 0, nil, nil, false
}

// serveFromWindow attempts the DMI fast path for one parsed guest
// frame: a READ is answered by synthesising the DATA reply straight
// into the receive buffer; a WRITE is staged for the kernel's next
// reconcile. Returns false on a window miss — the caller falls back to
// the message path.
func (d *CosimDev) serveFromWindow(win *Window, typ, cycles uint32, payload []byte) bool {
	switch typ {
	case cosimMsgRead:
		if !win.TryRead(cycles, d.buildReplyFn) {
			return false
		}
		d.InjectRx(d.reply)
		return true
	case cosimMsgWrite:
		return win.TryWrite(cycles, payload)
	}
	return false
}

// buildReply builds the DATA reply carrying data in d.reply.
func (d *CosimDev) buildReply(data []byte) {
	le := binary.LittleEndian
	d.reply = le.AppendUint32(d.reply[:0], uint32(8+len(data)))
	d.reply = le.AppendUint32(d.reply, cosimMsgData)
	d.reply = le.AppendUint32(d.reply, uint32(len(data)))
	d.reply = append(d.reply, data...)
}

// yielded runs the yield hook, if any.
func (d *CosimDev) yielded() {
	if d.yield != nil {
		d.yield()
	}
}

// Read implements iss.Device.
func (d *CosimDev) Read(off uint32, size int) (uint32, error) {
	switch off {
	case CosimRxByte:
		if d.rxLen() == 0 {
			return 0, nil
		}
		v := uint32(d.popRx())
		d.refresh()
		return v, nil
	case CosimRxWord:
		var v uint32
		for i := 0; i < 4 && d.rxLen() > 0; i++ {
			v |= uint32(d.popRx()) << (8 * i)
		}
		d.refresh()
		return v, nil
	case CosimRxAvail:
		return uint32(d.rxLen()), nil
	case CosimIntNum:
		if len(d.ints) == 0 {
			return NoInt, nil
		}
		return d.ints[0], nil
	case CosimRxIEn:
		if d.rxIntEn {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("%s: read of unknown register %#x", d.name, off)
	}
}

// Write implements iss.Device.
func (d *CosimDev) Write(off uint32, size int, v uint32) error {
	switch off {
	case CosimTxByte:
		d.tx = append(d.tx, byte(v))
	case CosimTxWord:
		d.tx = append(d.tx, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	case CosimTxFlush:
		return d.flush()
	case CosimIntAck:
		if len(d.ints) > 0 {
			// Shift in place: re-slicing past the head would shrink the
			// capacity until the next InjectIRQ reallocates.
			d.ints = d.ints[:copy(d.ints, d.ints[1:])]
		}
		d.refresh()
	case CosimRxIEn:
		d.rxIntEn = v&1 != 0
		d.refresh()
	default:
		return fmt.Errorf("%s: write to unknown register %#x", d.name, off)
	}
	return nil
}

// flush sends the buffered frame: from a granted window when it is a
// READ or WRITE the window can serve, else to the data socket. The
// buffer is reused by the next frame: the window path copies what it
// stages, and transports do not retain a written slice.
func (d *CosimDev) flush() error {
	out := d.tx
	d.tx = d.tx[:0]
	if len(d.windows) > 0 {
		if typ, cycles, port, data, ok := parseGuestFrame(out); ok {
			if win := d.windows[string(port)]; win != nil && d.serveFromWindow(win, typ, cycles, data) {
				d.yielded()
				return nil
			}
		}
	}
	if d.data == nil {
		return fmt.Errorf("%s: flush with no data connection", d.name)
	}
	if _, err := d.data.Write(out); err != nil {
		return err
	}
	d.sent += uint64(len(out))
	d.yielded()
	return nil
}

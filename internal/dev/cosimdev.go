package dev

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
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
	mu      sync.Mutex
	tx      []byte
	rx      []byte
	ints    []uint32
	rxIntEn bool

	data io.Writer
	pic  *PIC
	line int
	name string // "cosim" or "cosim<n>" for CPU n of a multi-processor SoC

	// windows holds the kernel-granted DMI windows by port name. A
	// flushed guest frame whose port has a valid window is served
	// locally; everything else goes to the data socket unchanged.
	windows map[string]*Window

	txMessages uint64
	rxBytes    uint64
}

// NewCosimDev creates the bridge device asserting the given PIC line.
func NewCosimDev(pic *PIC, line int) *CosimDev {
	return &CosimDev{pic: pic, line: line, name: "cosim"}
}

// SetInstance labels the device with its CPU index in a multi-processor
// SoC so its errors name the guest they came from; instance 0 keeps the
// plain single-CPU name.
func (d *CosimDev) SetInstance(n int) {
	d.mu.Lock()
	defer d.mu.Unlock()
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

// refresh drives the PIC line from the device state; callers hold d.mu.
func (d *CosimDev) refresh() {
	if len(d.ints) > 0 || (d.rxIntEn && len(d.rx) > 0) {
		d.pic.Assert(d.line)
	} else {
		d.pic.Deassert(d.line)
	}
}

// ConnectData attaches the data socket. Writes flushed by the guest go
// to w; bytes arriving on r become readable through CosimRxByte. The
// read pump runs until r is exhausted. Reattaching the data socket is a
// device reconfiguration: every granted DMI window is revoked, so a
// stale grant can never serve reads that belong on the new connection.
func (d *CosimDev) ConnectData(r io.Reader, w io.Writer) {
	d.mu.Lock()
	d.data = w
	revoked := takeWindows(&d.windows)
	d.mu.Unlock()
	for _, win := range revoked {
		win.Revoke()
	}
	go func() {
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			if n > 0 {
				d.InjectRx(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}()
}

// takeWindows empties a window map and returns its windows; callers
// hold the device lock and revoke after releasing it (window locks are
// never taken under d.mu — the guest hit path orders the other way).
func takeWindows(m *map[string]*Window) []*Window {
	if len(*m) == 0 {
		*m = nil
		return nil
	}
	ws := make([]*Window, 0, len(*m))
	for _, w := range *m {
		ws = append(ws, w)
	}
	*m = nil
	return ws
}

// GrantDMIWindow implements DMIGranter: guest frames naming port are
// served from w when possible. Granting over an existing window
// revokes the old grant.
func (d *CosimDev) GrantDMIWindow(port string, w *Window) {
	d.mu.Lock()
	if d.windows == nil {
		d.windows = make(map[string]*Window)
	}
	old := d.windows[port]
	d.windows[port] = w
	d.mu.Unlock()
	if old != nil {
		old.Revoke()
	}
}

// RevokeDMIWindows implements DMIGranter.
func (d *CosimDev) RevokeDMIWindows() {
	d.mu.Lock()
	revoked := takeWindows(&d.windows)
	d.mu.Unlock()
	for _, w := range revoked {
		w.Revoke()
	}
}

// ConnectIRQ attaches the interrupt socket: every 4-byte little-endian
// interrupt id read from r is queued and asserted on the PIC line.
func (d *CosimDev) ConnectIRQ(r io.Reader) {
	go func() {
		var b [4]byte
		for {
			if _, err := io.ReadFull(r, b[:]); err != nil {
				return
			}
			id := uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			d.mu.Lock()
			d.ints = append(d.ints, id)
			d.refresh()
			d.mu.Unlock()
		}
	}()
}

// InjectRx appends bytes to the receive buffer directly (in-process
// transports and tests).
func (d *CosimDev) InjectRx(b []byte) {
	d.mu.Lock()
	d.rx = append(d.rx, b...)
	d.rxBytes += uint64(len(b))
	d.refresh()
	d.mu.Unlock()
}

// InjectIRQ queues a co-simulation interrupt directly.
func (d *CosimDev) InjectIRQ(id uint32) {
	d.mu.Lock()
	d.ints = append(d.ints, id)
	d.refresh()
	d.mu.Unlock()
}

// TxMessages returns how many messages the guest has flushed.
func (d *CosimDev) TxMessages() uint64 { return d.txMessages }

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
		var reply []byte
		if !win.TryRead(cycles, func(data []byte) {
			le := binary.LittleEndian
			reply = make([]byte, 0, 12+len(data))
			reply = le.AppendUint32(reply, uint32(8+len(data)))
			reply = le.AppendUint32(reply, cosimMsgData)
			reply = le.AppendUint32(reply, uint32(len(data)))
			reply = append(reply, data...)
		}) {
			return false
		}
		d.InjectRx(reply)
		return true
	case cosimMsgWrite:
		return win.TryWrite(cycles, payload)
	}
	return false
}

// Read implements iss.Device.
func (d *CosimDev) Read(off uint32, size int) (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch off {
	case CosimRxByte:
		if len(d.rx) == 0 {
			return 0, nil
		}
		v := uint32(d.rx[0])
		d.rx = d.rx[1:]
		d.refresh()
		return v, nil
	case CosimRxWord:
		var v uint32
		for i := 0; i < 4 && len(d.rx) > 0; i++ {
			v |= uint32(d.rx[0]) << (8 * i)
			d.rx = d.rx[1:]
		}
		d.refresh()
		return v, nil
	case CosimRxAvail:
		return uint32(len(d.rx)), nil
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
	d.mu.Lock()
	name := d.name // the flush and default paths error after unlocking
	switch off {
	case CosimTxByte:
		d.tx = append(d.tx, byte(v))
		d.mu.Unlock()
		return nil
	case CosimTxWord:
		d.tx = append(d.tx, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
		d.mu.Unlock()
		return nil
	case CosimTxFlush:
		out := d.tx
		d.tx = nil
		w := d.data
		d.txMessages++
		var win *Window
		var typ, cycles uint32
		var payload []byte
		if len(d.windows) > 0 {
			if t, cyc, port, data, ok := parseGuestFrame(out); ok {
				if wnd := d.windows[string(port)]; wnd != nil {
					win, typ, cycles, payload = wnd, t, cyc, data
				}
			}
		}
		d.mu.Unlock()
		if win != nil && d.serveFromWindow(win, typ, cycles, payload) {
			return nil
		}
		if w == nil {
			return fmt.Errorf("%s: flush with no data connection", name)
		}
		_, err := w.Write(out)
		return err
	case CosimIntAck:
		if len(d.ints) > 0 {
			d.ints = d.ints[1:]
		}
		d.refresh()
		d.mu.Unlock()
		return nil
	case CosimRxIEn:
		d.rxIntEn = v&1 != 0
		d.refresh()
		d.mu.Unlock()
		return nil
	default:
		d.mu.Unlock()
		return fmt.Errorf("%s: write to unknown register %#x", name, off)
	}
}

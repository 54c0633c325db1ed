package dev

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

func TestWindowReadLifecycle(t *testing.T) {
	var activity int
	w := NewWindow("pkt", func() { activity++ })
	if w.Port() != "pkt" {
		t.Fatalf("port = %q", w.Port())
	}

	// No generation mirrored yet: a read misses.
	if w.TryRead(1, func([]byte) { t.Fatal("sink called on miss") }) {
		t.Fatal("read served from an empty window")
	}

	w.Update([]byte{1, 2, 3, 4}, 1)
	var got []byte
	if !w.TryRead(10, func(data []byte) { got = append([]byte(nil), data...) }) {
		t.Fatal("fresh generation not served")
	}
	if !bytes.Equal(got, []byte{1, 2, 3, 4}) {
		t.Fatalf("read %v", got)
	}
	if activity != 1 {
		t.Fatalf("activity callbacks = %d", activity)
	}
	seq, cycles, ok := w.TakeReadAck()
	if !ok || seq != 1 || cycles != 10 {
		t.Fatalf("read ack = (%d, %d, %v)", seq, cycles, ok)
	}
	if _, _, ok := w.TakeReadAck(); ok {
		t.Fatal("read ack not cleared")
	}

	// A stale re-read falls back to the message path.
	if w.TryRead(11, func([]byte) {}) {
		t.Fatal("stale generation re-served")
	}
	w.Update([]byte{9}, 2)
	if !w.TryRead(12, func([]byte) {}) {
		t.Fatal("new generation not served")
	}

	// A generation the message path already delivered is not fresh.
	w.Update([]byte{8}, 3)
	w.SyncConsumed(3)
	if w.TryRead(13, func([]byte) {}) {
		t.Fatal("message-delivered generation re-served")
	}

	hits, misses, revs := w.Counters()
	if hits != 2 || misses != 3 || revs != 0 {
		t.Fatalf("counters = (%d, %d, %d)", hits, misses, revs)
	}
}

func TestWindowWriteStagingAndRevoke(t *testing.T) {
	w := NewWindow("csum", nil)
	payload := []byte{0xaa, 0xbb}
	if !w.TryWrite(5, payload) {
		t.Fatal("write not staged")
	}
	payload[0] = 0 // the window must have copied
	if !w.HasPending() {
		t.Fatal("staged write not pending")
	}
	staged := w.TakeStaged(nil)
	if len(staged) != 1 || staged[0].Cycles != 5 || !bytes.Equal(staged[0].Data, []byte{0xaa, 0xbb}) {
		t.Fatalf("staged = %+v", staged)
	}
	if w.HasPending() {
		t.Fatal("pending after drain")
	}

	w.Revoke()
	w.Revoke() // double revocation counts once
	if w.Valid() {
		t.Fatal("window valid after revoke")
	}
	if w.TryWrite(6, payload) || w.TryRead(6, nil) {
		t.Fatal("revoked window served an access")
	}
	w.Update([]byte{1}, 99) // must be a no-op
	if w.TryRead(7, nil) {
		t.Fatal("revoked window accepted an update")
	}
	if _, _, revs := w.Counters(); revs != 1 {
		t.Fatalf("revocations = %d", revs)
	}
}

func TestWindowStagingBounds(t *testing.T) {
	w := NewWindow("csum", nil)
	for i := 0; i < maxStagedWrites; i++ {
		if !w.TryWrite(uint32(i), []byte{byte(i)}) {
			t.Fatalf("write %d rejected below the staging bound", i)
		}
	}
	if w.TryWrite(999, []byte{1}) {
		t.Fatal("write accepted past maxStagedWrites")
	}
	w.TakeStaged(nil)

	if w.TryWrite(0, make([]byte, maxStagedBytes+1)) {
		t.Fatal("write accepted past maxStagedBytes")
	}
	if !w.TryWrite(0, make([]byte, maxStagedBytes)) {
		t.Fatal("exact-bound write rejected")
	}
}

// guestFrame composes a driver-style READ/WRITE frame (what the guest
// assembles through the TX registers).
func guestFrame(typ, cycles uint32, port string, data []byte) []byte {
	le := binary.LittleEndian
	body := le.AppendUint32(nil, typ)
	body = le.AppendUint32(body, cycles)
	body = le.AppendUint32(body, uint32(len(port)))
	body = append(body, port...)
	if typ == cosimMsgWrite {
		body = le.AppendUint32(body, uint32(len(data)))
		body = append(body, data...)
	}
	frame := le.AppendUint32(nil, uint32(len(body)))
	return append(frame, body...)
}

// flushFrame pushes a composed frame through the device's TX registers.
func flushFrame(t *testing.T, d *CosimDev, frame []byte) {
	t.Helper()
	for _, b := range frame {
		if err := d.Write(CosimTxByte, 4, uint32(b)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Write(CosimTxFlush, 4, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCosimDevWindowServesReadAndWrite(t *testing.T) {
	d := NewCosimDev(NewPIC(newFakeSink(), 0), CosimLine)
	var socket bytes.Buffer
	d.ConnectData(eofReader{}, &socket)

	win := NewWindow("pkt", nil)
	win.Update([]byte{1, 2, 3, 4}, 1)
	d.GrantDMIWindow("pkt", win)

	// A READ of the windowed port is answered locally: the DATA reply
	// appears in RX and nothing reaches the socket.
	flushFrame(t, d, guestFrame(cosimMsgRead, 7, "pkt", nil))
	if avail, _ := d.Read(CosimRxAvail, 4); avail != 16 {
		t.Fatalf("rx avail = %d, want 16 (DATA reply)", avail)
	}
	if socket.Len() != 0 {
		t.Fatalf("read hit leaked %d bytes to the socket", socket.Len())
	}
	if v, _ := d.Read(CosimRxWord, 4); v != 12 { // size word: 8 + len(data)
		t.Fatalf("reply size word = %d", v)
	}

	// A stale re-read falls back to the socket.
	flushFrame(t, d, guestFrame(cosimMsgRead, 8, "pkt", nil))
	if socket.Len() == 0 {
		t.Fatal("stale read did not fall back to the socket")
	}
	socket.Reset()

	// A WRITE of a windowed port is staged, not transmitted.
	wwin := NewWindow("csum", nil)
	d.GrantDMIWindow("csum", wwin)
	flushFrame(t, d, guestFrame(cosimMsgWrite, 9, "csum", []byte{0xde, 0xad}))
	if socket.Len() != 0 {
		t.Fatalf("write hit leaked %d bytes to the socket", socket.Len())
	}
	staged := wwin.TakeStaged(nil)
	if len(staged) != 1 || staged[0].Cycles != 9 || !bytes.Equal(staged[0].Data, []byte{0xde, 0xad}) {
		t.Fatalf("staged = %+v", staged)
	}

	// Frames naming unwindowed ports go to the socket untouched.
	frame := guestFrame(cosimMsgWrite, 10, "other", []byte{1})
	flushFrame(t, d, frame)
	if !bytes.Equal(socket.Bytes(), frame) {
		t.Fatalf("socket got % x, want % x", socket.Bytes(), frame)
	}
}

func TestCosimDevGrantReplacementAndReconnectRevoke(t *testing.T) {
	d := NewCosimDev(NewPIC(newFakeSink(), 0), CosimLine)
	var socket bytes.Buffer
	d.ConnectData(eofReader{}, &socket)

	a := NewWindow("pkt", nil)
	d.GrantDMIWindow("pkt", a)
	b := NewWindow("pkt", nil)
	d.GrantDMIWindow("pkt", b)
	if a.Valid() {
		t.Fatal("replaced grant not revoked")
	}
	if !b.Valid() {
		t.Fatal("replacement grant revoked")
	}

	// Reattaching the data socket is a reconfiguration: all grants drop.
	d.ConnectData(eofReader{}, &socket)
	if b.Valid() {
		t.Fatal("reconnect did not revoke the grant")
	}

	c := NewWindow("pkt", nil)
	d.GrantDMIWindow("pkt", c)
	d.RevokeDMIWindows()
	if c.Valid() {
		t.Fatal("RevokeDMIWindows left the grant valid")
	}
}

// eofReader is an immediately-exhausted data socket read side.
type eofReader struct{}

func (eofReader) Read([]byte) (int, error) { return 0, errEOF }

var errEOF = net.ErrClosed

func TestMailboxWindowMirrorsDeliveries(t *testing.T) {
	sa, sb := newFakeSink(), newFakeSink()
	picA, picB := NewPIC(sa, 0), NewPIC(sb, 0)
	a, b := NewMailboxPair(picA, 3, picB, 3)

	w := NewWindow("mbox", nil)
	b.GrantDMIWindow(w)

	// Nothing delivered yet: the mirror holds generation 0, no hit.
	if w.TryRead(1, func([]byte) {}) {
		t.Fatal("empty mailbox mirror served a read")
	}

	if err := a.Write(MBSend, 4, 0xcafe0001); err != nil {
		t.Fatal(err)
	}
	var got []byte
	if !w.TryRead(2, func(data []byte) { got = append([]byte(nil), data...) }) {
		t.Fatal("delivery not mirrored into the window")
	}
	if len(got) != 4 || binary.LittleEndian.Uint32(got) != 0xcafe0001 {
		t.Fatalf("mirrored payload % x", got)
	}

	// The register path is untouched: MBRecv still pops, the PIC line
	// was asserted by the delivery.
	if !sb.raised[0] {
		t.Fatal("delivery did not assert the peer PIC line")
	}
	if v, _ := b.Read(MBRecv, 4); v != 0xcafe0001 {
		t.Fatalf("MBRecv = %#x", v)
	}

	// Granting again replaces the old window; revoking detaches.
	w2 := NewWindow("mbox", nil)
	b.GrantDMIWindow(w2)
	if w.Valid() {
		t.Fatal("replaced mailbox grant not revoked")
	}
	b.RevokeDMIWindow()
	if w2.Valid() {
		t.Fatal("mailbox revoke left the window valid")
	}
	if err := a.Write(MBSend, 4, 7); err != nil { // must not touch revoked windows
		t.Fatal(err)
	}
}

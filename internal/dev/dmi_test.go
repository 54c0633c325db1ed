package dev

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
)

func TestWindowReadLifecycle(t *testing.T) {
	w := NewWindow("pkt")
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
	w := NewWindow("csum")
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
	w := NewWindow("csum")
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

	win := NewWindow("pkt")
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
	wwin := NewWindow("csum")
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

// TestCosimDevWindowReadHitAllocs: a window READ hit builds its DATA
// reply in the device's scratch, and a drained receive buffer restarts
// at its base, so a hit followed by the guest reading the reply out
// allocates nothing.
func TestCosimDevWindowReadHitAllocs(t *testing.T) {
	d := NewCosimDev(NewPIC(newFakeSink(), 0), CosimLine)
	var socket bytes.Buffer
	d.ConnectData(eofReader{}, &socket)
	win := NewWindow("pkt")
	d.GrantDMIWindow("pkt", win)
	frame := guestFrame(cosimMsgRead, 7, "pkt", nil)
	data := make([]byte, 64)
	var seq uint64
	hit := func() {
		seq++
		win.Update(data, seq) // a fresh generation, so the read hits
		flushFrame(t, d, frame)
		for avail, _ := d.Read(CosimRxAvail, 4); avail > 0; avail, _ = d.Read(CosimRxAvail, 4) {
			_, _ = d.Read(CosimRxWord, 4)
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(200, hit); allocs != 0 {
		t.Fatalf("%v allocations per window READ hit and drain", allocs)
	}
	if hits, _, _ := win.Counters(); socket.Len() != 0 || hits != 202 {
		t.Fatalf("%d bytes to the socket and %d hits, want 0 and 202", socket.Len(), hits)
	}
}

func TestCosimDevGrantReplacementAndReconnectRevoke(t *testing.T) {
	d := NewCosimDev(NewPIC(newFakeSink(), 0), CosimLine)
	var socket bytes.Buffer
	d.ConnectData(eofReader{}, &socket)

	a := NewWindow("pkt")
	d.GrantDMIWindow("pkt", a)
	b := NewWindow("pkt")
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

	c := NewWindow("pkt")
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

package dev

import (
	"encoding/binary"
	"io"
	"testing"

	"cosim/internal/transport"
)

// countingSink counts the PIC's drives of the CPU pin.
type countingSink struct {
	calls int
	up    bool
}

func (s *countingSink) RaiseIRQ(int) { s.calls++; s.up = true }
func (s *countingSink) ClearIRQ(int) { s.calls++; s.up = false }

func TestCosimRxPopsWithoutIEnCauseNoPICTraffic(t *testing.T) {
	sink := &countingSink{}
	d := NewCosimDev(NewPIC(sink, 0), CosimLine)
	d.InjectRx(make([]byte, 64))
	for i := 0; i < 16; i++ {
		_, _ = d.Read(CosimRxByte, 4)
	}
	for i := 0; i < 12; i++ {
		_, _ = d.Read(CosimRxWord, 4)
	}
	if sink.calls != 0 || sink.up {
		t.Fatalf("%d PIC drives (line up %v) with RxIEn off", sink.calls, sink.up)
	}
}

func TestCosimLineLevelFollowsDeviceState(t *testing.T) {
	sink := &countingSink{}
	pic := NewPIC(sink, 0)
	d := NewCosimDev(pic, CosimLine)
	pop := func() { _, _ = d.Read(CosimRxByte, 4) }
	ack := func() { _ = d.Write(CosimIntAck, 4, 0) }
	ien := func(v uint32) func() { return func() { _ = d.Write(CosimRxIEn, 4, v) } }
	steps := []struct {
		name  string
		op    func()
		up    bool
		calls int // pin drives so far: one per level change
	}{
		{"first interrupt", func() { d.InjectIRQ(1) }, true, 1},
		{"second interrupt", func() { d.InjectIRQ(2) }, true, 1},
		{"ack one of two", ack, true, 1},
		{"ack the last", ack, false, 2},
		{"ack an empty queue", ack, false, 2},
		{"data with RxIEn off", func() { d.InjectRx([]byte{1, 2, 3, 4}) }, false, 2},
		{"arm with data available", ien(1), true, 3},
		{"pop with data left", pop, true, 3},
		{"re-arm", ien(1), true, 3},
		{"drain by word", func() { _, _ = d.Read(CosimRxWord, 4) }, false, 4},
		{"data while armed", func() { d.InjectRx([]byte{9}) }, true, 5},
		{"interrupt on a raised line", func() { d.InjectIRQ(3) }, true, 5},
		{"disarm with an interrupt queued", ien(0), true, 5},
		{"ack with data but disarmed", ack, false, 6},
		{"arm again", ien(1), true, 7},
		{"drain by byte", pop, false, 8},
	}
	for _, s := range steps {
		s.op()
		if sink.up != s.up || sink.calls != s.calls {
			t.Fatalf("%s: line up %v after %d drives, want %v after %d", s.name, sink.up, sink.calls, s.up, s.calls)
		}
		if pending := pic.Pending()&(1<<CosimLine) != 0; pending != s.up {
			t.Fatalf("%s: PIC pending %v, want %v", s.name, pending, s.up)
		}
	}
}

func TestCosimFlushReusesTxBuffer(t *testing.T) {
	host, guest, err := transport.Ring.Pair()
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	go func() { _, _ = io.Copy(io.Discard, host) }()
	d := NewCosimDev(NewPIC(&countingSink{}, 0), CosimLine)
	d.ConnectData(guest, guest)

	// A WRITE frame as the guest driver composes it: length, type,
	// cycles, port name, data.
	le := binary.LittleEndian
	frame := le.AppendUint32(nil, cosimMsgWrite)
	frame = le.AppendUint32(frame, 1234)
	frame = le.AppendUint32(frame, 4)
	frame = append(frame, "pkts"...)
	frame = le.AppendUint32(frame, 16)
	frame = append(frame, make([]byte, 16)...)
	frame = append(le.AppendUint32(nil, uint32(len(frame))), frame...)
	words := make([]uint32, 0, len(frame)/4)
	for i := 0; i < len(frame); i += 4 {
		words = append(words, le.Uint32(frame[i:]))
	}
	send := func() {
		for _, w := range words {
			_ = d.Write(CosimTxWord, 4, w)
		}
		if err := d.Write(CosimTxFlush, 4, 0); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("%v allocations per WRITE compose and flush", allocs)
	}
}

package gdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// readFrame reads one "$body#xx" frame from a raw peer's reader,
// skipping ack bytes, and returns the body.
func readFrame(br *bufio.Reader) ([]byte, error) {
	if _, err := br.ReadBytes('$'); err != nil {
		return nil, err
	}
	body, err := br.ReadBytes('#')
	if err != nil {
		return nil, err
	}
	if _, err := io.ReadFull(br, make([]byte, 2)); err != nil {
		return nil, err
	}
	return body[:len(body)-1], nil
}

// servePair starts a stub for src on one end of a connection of the
// given network ("pipe" or "tcp") and returns the other end together
// with a channel that receives Serve's result.
func servePair(t *testing.T, network, src string) (*Stub, net.Conn, <-chan error) {
	t.Helper()
	cpu, _ := testCPU(t, src)
	var host, target net.Conn
	switch network {
	case "pipe":
		host, target = net.Pipe()
	case "tcp":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if host, err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		if target, err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { host.Close() })
	stub := NewStub(cpu, target)
	served := make(chan error, 1)
	go func() {
		served <- stub.Serve()
		target.Close()
	}()
	return stub, host, served
}

// TestNoAckHandshake: against a real stub the client negotiates no-ack
// mode, after which neither side writes another ack byte.
func TestNoAckHandshake(t *testing.T) {
	for _, network := range []string{"pipe", "tcp"} {
		t.Run(network, func(t *testing.T) {
			stub, host, served := servePair(t, network, testProg)
			cl, err := NewClient(host)
			if err != nil {
				t.Fatal(err)
			}
			if !cl.t.noAck {
				t.Fatal("client kept ack mode against a stub that supports no-ack")
			}
			for i := 0; i < 5; i++ {
				if _, err := cl.ReadRegisters(); err != nil {
					t.Fatal(err)
				}
				if _, _, err := cl.RunQuantum(1); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.Kill(); err != nil {
				t.Fatal(err)
			}
			if err := <-served; err != nil {
				t.Fatalf("Serve = %v", err)
			}
			// One ack each: the client's for the OK, the stub's for the
			// QStartNoAckMode request.
			if st := cl.Stats(); st.AcksSent != 1 || st.RoundTrips != 11 {
				t.Fatalf("client stats = %+v, want 1 ack and 11 round trips", st)
			}
			if st := stub.Stats(); st.AcksSent != 1 {
				t.Fatalf("stub acks = %d, want 1", st.AcksSent)
			}
		})
	}
}

// TestNoAckFallbackKeepsAckMode: a peer that answers QStartNoAckMode
// with an empty reply keeps the connection in ack mode, where a NAK
// still makes the client retransmit.
func TestNoAckFallbackKeepsAckMode(t *testing.T) {
	host, peer := net.Pipe()
	defer host.Close()
	defer peer.Close()
	seen := make(chan []string, 1)
	go func() {
		br := bufio.NewReader(peer)
		var got []string
		defer func() { seen <- got }()
		expect := func(want byte) bool {
			c, err := br.ReadByte()
			return err == nil && c == want
		}
		step := func(write []byte) bool {
			f, err := readFrame(br)
			got = append(got, string(f))
			_, werr := peer.Write(write)
			return err == nil && werr == nil
		}
		// Refuse no-ack: ack the request, reply empty, expect the ack.
		if !step([]byte("+$#00")) || !expect('+') {
			return
		}
		// NAK the first copy of the next command, ack the retransmission.
		if !step([]byte("-")) || !step([]byte("+")) {
			return
		}
		if _, err := peer.Write(appendFrame(nil, appendHexU32LE(nil, 0x1234))); err == nil {
			expect('+')
		}
	}()
	cl, err := NewClient(host)
	if err != nil {
		t.Fatal(err)
	}
	if cl.t.noAck {
		t.Fatal("client switched to no-ack mode on an empty reply")
	}
	pc, err := cl.ReadPC()
	if err != nil || pc != 0x1234 {
		t.Fatalf("ReadPC = %#x, %v", pc, err)
	}
	if st := cl.Stats(); st.Retransmits != 1 || st.AcksSent != 2 {
		t.Fatalf("stats = %+v, want 1 retransmit and 2 acks", st)
	}
	got := <-seen
	want := []string{"QStartNoAckMode", "p20", "p20"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("peer saw %q, want %q", got, want)
	}
}

// TestNoAckChecksumFailsLoudly: after negotiation there is no NAK to
// ask for a retransmission, so a corrupted packet is an error on both
// ends instead of a silent retry.
func TestNoAckChecksumFailsLoudly(t *testing.T) {
	t.Run("client", func(t *testing.T) {
		host, peer := net.Pipe()
		defer host.Close()
		defer peer.Close()
		go func() {
			br := bufio.NewReader(peer)
			if _, err := readFrame(br); err != nil {
				return
			}
			_, _ = peer.Write(append([]byte{'+'}, appendFrame(nil, []byte("OK"))...))
			_, _ = br.ReadByte() // the client's ack for OK
			if _, err := readFrame(br); err != nil {
				return
			}
			_, _ = peer.Write([]byte("$00#00"))
		}()
		cl, err := NewClient(host)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReadRegisters(); !errors.Is(err, ErrChecksum) {
			t.Fatalf("ReadRegisters = %v, want ErrChecksum", err)
		}
	})
	t.Run("stub", func(t *testing.T) {
		_, peer, served := servePair(t, "pipe", testProg)
		br := bufio.NewReader(peer)
		if _, err := peer.Write(appendFrame(nil, []byte("QStartNoAckMode"))); err != nil {
			t.Fatal(err)
		}
		if c, err := br.ReadByte(); err != nil || c != '+' {
			t.Fatalf("handshake ack = %q, %v", c, err)
		}
		if r, err := readFrame(br); err != nil || string(r) != "OK" {
			t.Fatalf("handshake reply = %q, %v", r, err)
		}
		if _, err := peer.Write([]byte("+$g#00")); err != nil {
			t.Fatal(err)
		}
		if err := <-served; !errors.Is(err, ErrChecksum) {
			t.Fatalf("Serve = %v, want ErrChecksum", err)
		}
	})
}

// TestBreakInRacingStopReply: a break-in sent from a second goroutine
// while the continue is already reporting a breakpoint stop. The client
// sees exactly one stop per continue, and a stray break-in does not
// stop the next continue.
func TestBreakInRacingStopReply(t *testing.T) {
	cl, _, im := newTarget(t, warmLoopProg)
	cl.SetStopTimeout(5 * time.Second)
	bp := im.MustSymbol("target")
	if err := cl.SetBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		sent := breakIn(t, cl, 0)
		ev, err := cl.Continue()
		<-sent
		if err != nil {
			t.Fatalf("iteration %d: stop: %v", i, err)
		}
		if ev.Signal != 5 && ev.Signal != 2 {
			t.Fatalf("iteration %d: signal = %d", i, ev.Signal)
		}
		// A second stop reply for the same continue would be taken as
		// this transaction's reply and fail to parse as a register.
		if _, err := cl.ReadPC(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	// Without the breakpoint the loop runs until broken into. A stale
	// break-in would stop it at the first chunk boundary, microseconds in.
	if err := cl.ClearBreakpoint(bp); err != nil {
		t.Fatal(err)
	}
	sent := breakIn(t, cl, 50*time.Millisecond)
	ev, err := cl.Continue()
	if stopped := time.Now(); stopped.Before(<-sent) {
		t.Fatalf("continue after the race stopped before the break-in: %+v", ev)
	}
	if err != nil || ev.Signal != 2 {
		t.Fatalf("break-in stop = %+v, %v; want SIGINT", ev, err)
	}
}

// scriptedConn serves its data to the stub, then fails with err; the
// stub's writes are collected.
type scriptedConn struct {
	data []byte
	err  error
	out  bytes.Buffer
}

func (c *scriptedConn) Read(b []byte) (int, error) {
	if len(c.data) > 0 {
		n := copy(b, c.data)
		c.data = c.data[n:]
		return n, nil
	}
	return 0, c.err
}

func (c *scriptedConn) Write(b []byte) (int, error) { return c.out.Write(b) }

// TestServePropagatesReadError: a failing connection ends Serve with
// the connection's own error, not nil or io.EOF, after the packets
// that arrived before the failure were served.
func TestServePropagatesReadError(t *testing.T) {
	cpu, _ := testCPU(t, testProg)
	connErr := errors.New("connection reset by peer")
	conn := &scriptedConn{data: appendFrame(nil, []byte("?")), err: connErr}
	if err := NewStub(cpu, conn).Serve(); !errors.Is(err, connErr) {
		t.Fatalf("Serve = %v, want %v", err, connErr)
	}
	if want := appendFrame([]byte("+"), []byte("S05")); !bytes.Equal(conn.out.Bytes(), want) {
		t.Fatalf("stub wrote %q, want %q", conn.out.Bytes(), want)
	}
}

// TestServeCleanEOF: a peer that hangs up ends Serve without error,
// and a continue still running at that point is stopped so the
// runner goroutine can exit.
func TestServeCleanEOF(t *testing.T) {
	cpu, _ := testCPU(t, "_start:\nspin:\n    j spin\n")
	conn := &scriptedConn{data: appendFrame(nil, []byte("c")), err: io.EOF}
	done := make(chan error, 1)
	go func() { done <- NewStub(cpu, conn).Serve() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not stop the running continue at EOF")
	}
	if want := appendFrame([]byte("+"), []byte("S02")); !bytes.Equal(conn.out.Bytes(), want) {
		t.Fatalf("stub wrote %q, want %q", conn.out.Bytes(), want)
	}
}

// TestRoundTripAllocs pins the allocation cost of the hot RSP
// transactions, counted over both the client and the stub goroutine.
// Packets are read in place and a stop is parsed into the client's own
// event, so command and reply coding, the expedited stop reply and a
// combined transfer and resume included, allocate nothing;
// ReadRegisters returns a fresh *Regs and ReadMemory a fresh slice.
func TestRoundTripAllocs(t *testing.T) {
	cl, _, _ := newTarget(t, warmLoopProg)
	bpcl, _, im := newTarget(t, warmLoopProg)
	if err := bpcl.SetBreakpoint(im.MustSymbol("target")); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"RunQuantum", 0, func() error { _, _, err := cl.RunQuantum(8); return err }},
		{"RunQuantum/breakpoint-stop", 0, func() error {
			ev, _, err := bpcl.RunQuantum(8)
			if err == nil && (ev == nil || !ev.Expedited) {
				err = fmt.Errorf("quantum ended in %v, want an expedited breakpoint stop", ev)
			}
			return err
		}},
		{"ReadRegisters", 1, func() error { _, err := cl.ReadRegisters(); return err }},
		{"ReadMemory", 1, func() error { _, err := cl.ReadMemory(0, 4); return err }},
		{"WriteMemory", 0, func() error { return cl.WriteMemory(0x8000, []byte{1, 2, 3, 4}) }},
		{"ReadMemoryContinue/breakpoint-stop", 0, func() error { _, _, err := bpcl.ReadMemoryContinue(0x8000, 4); return err }},
		{"WriteMemoryContinue/breakpoint-stop", 0, func() error { _, err := bpcl.WriteMemoryContinue(0x8000, []byte{1, 2, 3, 4}); return err }},
	} {
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := c.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs > c.max {
			t.Errorf("%s: %.1f allocs per call, want <= %.0f", c.name, allocs, c.max)
		}
	}
}

// recordedWrites records every Write on a connection, one string each.
type recordedWrites struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (r *recordedWrites) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, string(p))
	r.mu.Unlock()
	return r.Conn.Write(p)
}

// since returns the writes recorded after the first n.
func (r *recordedWrites) since(n int) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.writes[n:]...)
}

// TestStubCoalescesPipelinedReplies: in no-ack mode the stub holds a
// reply while the peer's next packet is already buffered whole, so a
// memory transfer pipelined with a continue is answered in one write
// holding the transfer's reply and the stop. A lone command, or one
// followed by only part of a packet, is answered at once.
func TestStubCoalescesPipelinedReplies(t *testing.T) {
	cpu, im := testCPU(t, warmLoopProg)
	peer, target := net.Pipe()
	defer peer.Close()
	rec := &recordedWrites{Conn: target}
	go func() {
		_ = NewStub(cpu, rec).Serve()
		target.Close()
	}()
	if err := peer.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(peer)
	send := func(frames string) {
		t.Helper()
		if _, err := peer.Write([]byte(frames)); err != nil {
			t.Fatal(err)
		}
	}
	frame := func(payload string) string { return string(appendFrame(nil, []byte(payload))) }
	expect := func(want ...string) {
		t.Helper()
		for _, w := range want {
			r, err := readFrame(br)
			if err != nil || !bytes.HasPrefix(r, []byte(w)) {
				t.Fatalf("reply %q, %v; want one starting %q", r, err, w)
			}
		}
	}
	send(frame("QStartNoAckMode"))
	expect("OK")
	send("+" + frame(fmt.Sprintf("Z0,%x,4", im.MustSymbol("target"))))
	expect("OK")

	t.Run("pipelined", func(t *testing.T) {
		n := len(rec.since(0))
		send(frame("m8000,4") + continueFrame)
		expect("00000000", "T05")
		if w := rec.since(n); len(w) != 1 || !strings.HasPrefix(w[0], frame("00000000")+"$T05") {
			t.Fatalf("stub wrote %q, want one write holding the reply and the stop", w)
		}
	})
	t.Run("lone", func(t *testing.T) {
		n := len(rec.since(0))
		send(frame("m8000,4"))
		expect("00000000")
		if w := rec.since(n); len(w) != 1 || w[0] != frame("00000000") {
			t.Fatalf("stub wrote %q, want the reply alone", w)
		}
	})
	t.Run("partial", func(t *testing.T) {
		n := len(rec.since(0))
		rest := frame("g")
		send(frame("m8000,4") + rest[:2])
		expect("00000000") // answered without the rest of the next packet
		send(rest[2:])
		expect("")
		if w := rec.since(n); len(w) != 2 || w[0] != frame("00000000") {
			t.Fatalf("stub wrote %q, want the reply alone, then the next", w)
		}
	})
}

// TestStatsAfterEveryCall: the client reads every reply, stops
// included, on the caller's goroutine, so its counters are the
// caller's alone: Stats after a transaction, a continue, a combined
// transfer and resume, and a continue that a second goroutine broke in
// on all count what arrived, with no race (run under -race).
func TestStatsAfterEveryCall(t *testing.T) {
	cl, _, im := newTarget(t, warmLoopProg)
	cl.SetStopTimeout(5 * time.Second)
	bp := im.MustSymbol("target")
	var last Stats
	check := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		st := cl.Stats()
		if st.PacketsRecv <= last.PacketsRecv || st.PacketsSent <= last.PacketsSent {
			t.Fatalf("%s: stats %+v after %+v count nothing new", what, st, last)
		}
		last = st
	}
	_, err := cl.ReadPC()
	check("transaction", err)
	check("set breakpoint", cl.SetBreakpoint(bp))
	_, err = cl.Continue()
	check("continue", err)
	_, _, err = cl.ReadMemoryContinue(0x8000, 4)
	check("read memory and continue", err)
	_, err = cl.WriteMemoryContinue(0x8000, []byte{1, 2, 3, 4})
	check("write memory and continue", err)
	check("clear breakpoint", cl.ClearBreakpoint(bp))
	sent := breakIn(t, cl, 10*time.Millisecond)
	ev, err := cl.Continue()
	<-sent
	check("continue broken into", err)
	if ev.Signal != 2 {
		t.Fatalf("break-in stop = %+v, want SIGINT", ev)
	}
}

package core

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cosim/internal/asm"
	"cosim/internal/gdb"
	"cosim/internal/sim"
)

// resumeFrame is the framed bare continue, "$c#63".
const resumeFrame = "$c#63"

// attachRoundTrips are the transactions NewGDBKernel runs on a doubler
// guest: QStartNoAckMode and two Z0. Its first continue then adds a
// packet.
const attachRoundTrips = 3

// recordingConn records every host-side Write of an RSP connection.
type recordingConn struct {
	io.ReadWriteCloser
	mu     sync.Mutex
	writes []string
}

func (r *recordingConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, string(p))
	r.mu.Unlock()
	return r.ReadWriteCloser.Write(p)
}

// written returns the writes recorded so far.
func (r *recordingConn) written() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.writes...)
}

// attachGDBKernel attaches GDB-Kernel over conn to a fresh kernel with
// neither a clock nor a poll grid: the scheme schedules its own stop
// services.
func attachGDBKernel(t *testing.T, conn io.ReadWriter, im *asm.Image, bindings []VarBinding) (*sim.Kernel, *GDBKernel) {
	t.Helper()
	k := sim.NewKernel("top")
	g, err := NewGDBKernel(k, conn, im, GDBKernelOptions{
		CommonOptions: CommonOptions{CPUPeriod: sim.NS},
		Bindings:      bindings,
	})
	if err != nil {
		t.Fatal(err)
	}
	return k, g
}

// teardownBound bounds a test's teardown steps: a teardown that hangs
// fails naming its step instead of running into go test's timeout.
const teardownBound = 5 * time.Second

// runWithin fails the test, naming what, if fn does not return within
// d, so a hang on a synchronous transport fails instead of stalling the
// suite.
func runWithin(t *testing.T, what string, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// recordingTransport wraps a backend so the guest end of its pair
// records the stub's writes.
type recordingTransport struct {
	Transport
	stub *recordingConn
}

func (r *recordingTransport) Pair() (host, guest Endpoint, err error) {
	host, guest, err = r.Transport.Pair()
	r.stub = &recordingConn{ReadWriteCloser: guest}
	return host, r.stub, err
}

// TestGDBKernelStopServiceWire: GDB-Kernel services every stop with
// one host write holding the variable transfer and the resume, one
// round trip and two packets, on every transport; the stub answers it
// with one write holding the transfer's reply and the next stop,
// whether it runs on its own goroutine (pipe, tcp) or inside the
// kernel's reads (ring).
func TestGDBKernelStopServiceWire(t *testing.T) {
	for _, tr := range []Transport{TransportPipe, TransportRing, TransportTCP} {
		t.Run(tr.Name(), func(t *testing.T) {
			cpu, im := buildBareMetal(t, doublerSrc)
			rec := &recordingTransport{Transport: tr}
			target, err := StartGDBTarget(cpu, rec)
			if err != nil {
				t.Fatal(err)
			}
			conn := &recordingConn{ReadWriteCloser: target.HostConn}
			k, g := attachGDBKernel(t, conn, im, doublerBindings)
			attach, stubAttach := len(conn.written()), len(rec.stub.written())
			results := driveDoubler(t, k, 5)
			runWithin(t, "run", 10*time.Second, func() {
				if err := k.Run(sim.MaxTime); err != nil {
					t.Errorf("run: %v", err)
				}
			})
			writes, replies := conn.written()[attach:], rec.stub.written()[stubAttach:]
			after := g.Client().Stats()
			k.Shutdown()
			if err := target.Wait(); err != nil {
				t.Fatalf("stub: %v", err)
			}
			if g.Err() != nil || len(*results) != 5 {
				t.Fatalf("results %v, scheme error %v", *results, g.Err())
			}
			if len(replies) != len(writes) {
				t.Fatalf("%d stop services answered in %d stub writes, want one each", len(writes), len(replies))
			}
			for _, r := range replies {
				if strings.Count(r, "$") != 2 || !strings.Contains(r, "$T05") || strings.HasPrefix(r, "$T05") {
					t.Fatalf("stub write %q is not one transfer reply and the next stop", r)
				}
			}

			st := g.Stats()
			var toSC, toISS uint64
			for _, w := range writes {
				switch {
				case !strings.HasSuffix(w, resumeFrame) || strings.Count(w, "$") != 2:
					t.Fatalf("stop service write %q is not one transfer frame and %s", w, resumeFrame)
				case strings.HasPrefix(w, "$m"):
					toSC++
				case strings.HasPrefix(w, "$M"):
					toISS++
				default:
					t.Fatalf("stop service write %q holds no memory transfer", w)
				}
			}
			if toSC != 5 || toISS != 5 || toSC+toISS != st.Transfers {
				t.Fatalf("%d m and %d M writes for %d transfers, want 5 each", toSC, toISS, st.Transfers)
			}
			if rt, sent := after.RoundTrips-attachRoundTrips, after.PacketsSent-attachRoundTrips-1; rt != st.Transfers || sent != 2*st.Transfers {
				t.Fatalf("%d transfers cost %d round trips and %d packets, want 1 and 2 each", st.Transfers, rt, sent)
			}
		})
	}
}

// bigVarSrc is a guest whose input variable is larger than one packet
// blob: SystemC pokes big at bp_big, the guest echoes its first word
// to resp.
const bigVarSrc = `
_start:
    la   s0, big
    la   s1, resp
loop:
bp_big:
    lw   a0, 0(s0)
    sw   a0, 0(s1)
bp_resp:
    nop
    j    loop
.data
.align 4
resp: .word 0
big:  .space 2048
`

// TestGDBKernelPipeTransferLimit: over the unbuffered pipe, a transfer
// whose frame and the resume just fit the stub's read buffer goes in
// one write, and one just past it falls back to the transfer and the
// resume in turn. Neither hangs.
func TestGDBKernelPipeTransferLimit(t *testing.T) {
	_, im := buildBareMetal(t, bigVarSrc)
	addr := im.MustSymbol("big")
	// The largest poke whose M frame and the resume fit in one
	// MaxPacketSize read: "$M<addr>,<n>:<2n hex>#xx" then "$c#63".
	fits := func(n int) bool {
		return len(fmt.Sprintf("$M%x,%x:", addr, n))+2*n+3+len(resumeFrame) <= gdb.MaxPacketSize
	}
	limit := 1
	for fits(limit + 1) {
		limit++
	}
	for _, c := range []struct {
		name      string
		size      int
		pipelined bool
	}{
		{"under", limit, true},
		{"over", limit + 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cpu, im := buildBareMetal(t, bigVarSrc)
			target, err := StartGDBTarget(cpu, TransportPipe)
			if err != nil {
				t.Fatal(err)
			}
			conn := &recordingConn{ReadWriteCloser: target.HostConn}
			k, g := attachGDBKernel(t, conn, im, []VarBinding{
				{Port: "big", Var: "big", Size: c.size, Dir: ToISS, Label: "bp_big"},
				{Port: "resp", Var: "resp", Size: 4, Dir: ToSystemC, Label: "bp_resp"},
			})
			attach := len(conn.written())
			big, _ := k.IssOutPort("big")
			resp, _ := k.IssInPort("resp")
			var got []uint32
			data := make([]byte, c.size)
			k.Method("driver", func() {
				if big.Writes() > 0 {
					got = append(got, resp.Uint32())
				}
				if len(got) == 3 {
					k.Stop()
					return
				}
				data[0] = byte(len(got) + 1)
				big.Write(data)
			}, resp.Event())
			runWithin(t, "run", 10*time.Second, func() {
				if err := k.Run(sim.MaxTime); err != nil {
					t.Errorf("run: %v", err)
				}
				k.Shutdown()
			})
			_ = target.Wait()
			if g.Err() != nil || fmt.Sprint(got) != "[1 2 3]" {
				t.Fatalf("echoed %v, scheme error %v", got, g.Err())
			}
			var pokes, alone int
			for _, w := range conn.written()[attach:] {
				if strings.HasPrefix(w, "$M") {
					pokes++
					if strings.HasSuffix(w, resumeFrame) != c.pipelined {
						t.Fatalf("%d-byte poke: write ends %q, pipelined want %v", c.size, w[len(w)-5:], c.pipelined)
					}
				}
				if w == resumeFrame {
					alone++
				}
			}
			wantAlone := 0
			if !c.pipelined {
				wantAlone = 3
			}
			if pokes != 3 || alone != wantAlone {
				t.Fatalf("%d pokes and %d lone resumes, want 3 and %d", pokes, alone, wantAlone)
			}
		})
	}
}

// scriptedStub plays a stub that refuses every memory transfer: it
// negotiates no-ack mode, acknowledges breakpoints, reports a stop at
// stopPC for every continue, 100 cycles after the last, and answers
// each transfer with E01.
func scriptedStub(peer net.Conn, stopPC uint32) {
	br := bufio.NewReader(peer)
	send := func(payload string) {
		_, _ = peer.Write([]byte(fmt.Sprintf("$%s#%02x", payload, rspSum(payload))))
	}
	le := func(v uint32) string {
		return fmt.Sprintf("%02x%02x%02x%02x", byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	continues := 0
	for {
		c, err := br.ReadByte()
		if err != nil {
			return
		}
		if c != '$' {
			continue
		}
		body, err := br.ReadString('#')
		if err != nil {
			return
		}
		if _, err := br.Discard(2); err != nil {
			return
		}
		switch cmd := strings.TrimSuffix(body, "#"); {
		case cmd == "QStartNoAckMode":
			_, _ = peer.Write([]byte("+"))
			send("OK")
			_, _ = br.ReadByte() // the client's ack for OK
		case strings.HasPrefix(cmd, "Z"):
			send("OK")
		case cmd == "c":
			continues++
			send(fmt.Sprintf("T0520:%s;26:%s;27:%s;", le(stopPC), le(uint32(100*continues)), le(0)))
		case strings.HasPrefix(cmd, "m") || strings.HasPrefix(cmd, "M"):
			send("E01")
		case cmd == "k":
			return
		}
	}
}

// rspSum is the RSP checksum of an unescaped payload.
func rspSum(payload string) byte {
	var s byte
	for i := 0; i < len(payload); i++ {
		s += payload[i]
	}
	return s
}

// TestGDBKernelFailedTransfer: a stub that refuses a transfer sent with
// its resume fails the run with an error naming the scheme once and the
// port; the client still reads the stop that ends the resume, so it is
// never left running, and teardown ends within the stop timeout and
// leaves no goroutine behind.
func TestGDBKernelFailedTransfer(t *testing.T) {
	_, im := buildBareMetal(t, doublerSrc)
	for _, c := range []struct{ port, label, want string }{
		{"req", "bp_req", `gdb-kernel: port req: gdb: write memory failed: "E01"`},
		{"resp", "bp_resp", "gdb-kernel: port resp: gdb: memory read failed: E01"},
	} {
		t.Run(c.port, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			host, peer := net.Pipe()
			stubDone := make(chan struct{})
			go func() {
				defer close(stubDone)
				defer peer.Close()
				scriptedStub(peer, im.MustSymbol(c.label))
			}()
			k, g := attachGDBKernel(t, host, im, doublerBindings)
			req, _ := k.IssOutPort("req")
			req.WriteUint32(1) // the poke at bp_req has its data at once
			// The failed scheme schedules nothing more: the run ends idle.
			if err := k.Run(sim.US); err != nil && err != sim.ErrDeadlock {
				t.Fatal(err)
			}
			if err := g.Err(); err == nil || err.Error() != c.want {
				t.Fatalf("scheme error %v, want %q", err, c.want)
			}
			// The no-ack OK, two Z0 OKs, the first stop, the E01 and the
			// stop that ends the resume sent with the refused transfer.
			if got := g.Client().Stats().PacketsRecv; got != 6 {
				t.Fatalf("client read %d packets, want 6: the stop after the refused transfer went unread", got)
			}
			start := time.Now()
			g.Detach()
			k.Shutdown()
			if d := time.Since(start); d >= stopTimeout {
				t.Fatalf("teardown took %v, want under %v", d, stopTimeout)
			}
			<-stubDone
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after teardown, baseline %d", runtime.NumGoroutine(), baseline)
				}
				time.Sleep(5 * time.Millisecond)
			}
		})
	}
}

// refuseNoAck sits on the host side of a real stub's connection and
// answers QStartNoAckMode with an empty reply itself, so the client and
// the stub both stay in ack mode.
type refuseNoAck struct {
	io.ReadWriteCloser
	pending []byte // a reply to return before reading the stub
}

func (r *refuseNoAck) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte("QStartNoAckMode")) {
		r.pending = []byte("+$#00")
		return len(p), nil
	}
	return r.ReadWriteCloser.Write(p)
}

func (r *refuseNoAck) Read(p []byte) (int, error) {
	if len(r.pending) > 0 {
		n := copy(p, r.pending)
		r.pending = r.pending[n:]
		return n, nil
	}
	return r.ReadWriteCloser.Read(p)
}

// TestGDBKernelAckModeFallback: against a peer that keeps ack mode,
// where each packet waits for its ack, GDB-Kernel services its stops
// with the transfer and then the resume, each in its own write, and the
// run completes.
func TestGDBKernelAckModeFallback(t *testing.T) {
	cpu, im := buildBareMetal(t, doublerSrc)
	target, err := StartGDBTarget(cpu, TransportPipe)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingConn{ReadWriteCloser: target.HostConn}
	k, g := attachGDBKernel(t, &refuseNoAck{ReadWriteCloser: rec}, im, doublerBindings)
	results := driveDoubler(t, k, 3)
	runWithin(t, "run", 10*time.Second, func() {
		if err := k.Run(sim.MaxTime); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	g.Detach()
	after := g.Client().Stats()
	runWithin(t, "k.Shutdown", teardownBound, k.Shutdown)
	runWithin(t, "target.Wait", teardownBound, func() { _ = target.Wait() })
	if g.Err() != nil || fmt.Sprint(*results) != "[2 4 6]" {
		t.Fatalf("results %v, scheme error %v", *results, g.Err())
	}
	if after.AcksSent != after.PacketsRecv {
		t.Fatalf("client acked %d of %d packets received: the peer did not keep ack mode", after.AcksSent, after.PacketsRecv)
	}
	tr := g.Stats().Transfers
	if sent := after.PacketsSent - attachRoundTrips - 1; sent != 2*tr {
		t.Fatalf("%d transfers sent %d packets, want 2 each", tr, sent)
	}
	var resumes uint64
	for _, w := range rec.written() {
		if strings.Contains(w, resumeFrame) {
			if w != resumeFrame {
				t.Fatalf("ack-mode write %q carries the resume with another packet", w)
			}
			resumes++
		}
	}
	if resumes != tr+1 { // and the first continue, at attach
		t.Fatalf("%d lone resumes for %d transfers, want one each and one at attach", resumes, tr)
	}
}

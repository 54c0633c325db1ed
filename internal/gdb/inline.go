package gdb

import (
	"io"

	"cosim/internal/iss"
)

// Inline is the host end of an RSP link whose stub has no goroutine:
// the stub runs on the goroutine that reads this end. Before a Read, if
// bytes were written since the last one, it answers every whole packet
// they hold, a continue included, which runs to its stop there. The
// link's writes must never wait for their reader, since one goroutine
// writes a command and then serves it: a buffered in-process link whose
// capacity exceeds two MaxPacketSize frames (the ring transport's
// 64 KiB) never makes one wait.
//
// Read, Write and Close belong to one goroutine, the client's, with two
// exceptions: Close may come from any goroutine (a stop watchdog), and
// it ends a running continue at its next chunk; a break-in byte written
// alone, as Client.Interrupt writes it, may too, and ends it the same
// way. As under Serve, a break-in counts only once the continue has
// begun, here inside the read that follows the "c".
type Inline struct {
	stub        *Stub
	host, guest io.ReadWriteCloser
	unread      int  // bytes written to the stub that it has not read
	ended       bool // the stub saw a kill, a detach or a failed link
	err         error
}

// NewInline serves cpu over the endpoint pair host and guest with no
// goroutine, and returns the stub and the end a client reads and
// writes.
func NewInline(cpu *iss.CPU, host, guest io.ReadWriteCloser) (*Stub, *Inline) {
	in := &Inline{host: host, guest: guest}
	in.stub = NewStub(cpu, inlineGuest{in})
	return in.stub, in
}

// inlineGuest is the stub's side of an Inline link: it counts the bytes
// the stub reads.
type inlineGuest struct{ in *Inline }

func (g inlineGuest) Read(p []byte) (int, error) {
	n, err := g.in.guest.Read(p)
	g.in.unread -= n
	return n, err
}

func (g inlineGuest) Write(p []byte) (int, error) { return g.in.guest.Write(p) }

// Write writes to the stub. A lone break-in byte is not queued behind
// the packets: it ends a running continue at once, as under Serve.
func (in *Inline) Write(p []byte) (int, error) {
	if len(p) == 1 && p[0] == InterruptByte {
		in.stub.breakIn.Store(true)
		return 1, nil
	}
	n, err := in.host.Write(p)
	in.unread += n
	return n, err
}

// Read serves what was written since the last Read, then reads the
// stub's replies.
func (in *Inline) Read(p []byte) (int, error) {
	if in.unread > 0 {
		in.serve()
	}
	return in.host.Read(p)
}

// Close hangs the stub up and closes both ends.
func (in *Inline) Close() error {
	in.stub.hangUp.Store(true)
	_ = in.guest.Close()
	return in.host.Close()
}

// Wait answers what was written since the last Read (a kill) and
// returns why the stub ended: nil after a kill, a detach or a closed
// link, or the error that ended it.
func (in *Inline) Wait() error {
	in.serve()
	return in.err
}

// serve answers every whole packet written to the stub. The host writes
// whole packets, and the link holds every byte not yet read, so no read
// here waits. Acks and stray bytes ahead of a packet are skipped, as
// readPacket skips them.
func (in *Inline) serve() {
	s := in.stub
	for !in.ended && (in.unread > 0 || s.t.br.Buffered() > 0) {
		c, err := s.t.br.ReadByte()
		if err == nil && c == '$' {
			_ = s.t.br.UnreadByte()
			var pkt []byte
			var running, done bool
			if pkt, err = s.t.readPacket(); err == nil {
				running, done, err = s.handle(pkt)
			}
			if running {
				err = s.t.sendReplyNoAckWait(s.keepRunning(), false)
			}
			if done {
				err = io.EOF
			}
		}
		if err != nil {
			in.end(err)
		}
	}
}

// end records why the stub ended, as Serve would return it, and closes
// the stub's end, so the host reads what is left and then io.EOF.
func (in *Inline) end(err error) {
	in.ended = true
	if err != io.EOF {
		in.err = err
	}
	_ = in.guest.Close()
}

package gdb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	link "cosim/internal/transport"
)

// ErrTimeout reports a stop that did not arrive within the client's
// stop timeout (SetStopTimeout). The client has closed the link.
var ErrTimeout = errors.New("gdb: no stop within the stop timeout")

// StopEvent is a parsed RSP stop reply.
type StopEvent struct {
	Signal    byte
	IsWatch   bool
	WatchAddr uint32
	Exited    bool
	ExitCode  byte
	// Expedited reports that the reply carried the PC and both halves
	// of the cycle counter, which PC and Cycles then hold.
	Expedited bool
	PC        uint32
	Cycles    uint64
}

// String renders the event as the shortest RSP stop reply carrying it.
func (ev StopEvent) String() string {
	switch {
	case ev.Exited:
		return fmt.Sprintf("W%02x", ev.ExitCode)
	case !ev.IsWatch && !ev.Expedited:
		return fmt.Sprintf("S%02x", ev.Signal)
	}
	b := fmt.Appendf(nil, "T%02x", ev.Signal)
	if ev.IsWatch {
		b = fmt.Appendf(b, "watch:%x;", ev.WatchAddr)
	}
	if ev.Expedited {
		b = appendExpedited(b, ev.PC, ev.Cycles)
	}
	return string(b)
}

// Regs is the full RSP register file.
type Regs struct {
	GPR    [32]uint32
	PC     uint32
	SR     [5]uint32 // STATUS, EPC, CAUSE, IVEC, SCRATCH
	Cycles uint64
}

// Client is the host side of the RSP connection — the role gdb itself
// plays. It is used by the co-simulation wrapper (GDB-Wrapper scheme)
// and by the modified SystemC kernel (GDB-Kernel scheme).
//
// Every call writes its command and reads the reply inline, on the
// caller's goroutine, and a resume also reads the stop that ends it
// there: Continue, ReadMemoryContinue and WriteMemoryContinue return
// with the target stopped, so only the caller ever touches the client
// and its counters. Interrupt is the one call that is safe from another
// goroutine: it breaks in on a resume that the caller is blocked in.
//
// A *StopEvent a method returns is owned by the client and valid until
// the next call that returns one.
type Client struct {
	t    *transport
	conn io.ReadWriter
	cmd  []byte    // command build scratch
	data []byte    // ReadMemory's and ReadMemoryContinue's result
	ev   StopEvent // the last stop returned

	// dog bounds each wait for a stop (SetStopTimeout); nil waits
	// forever.
	dog *link.Watchdog
}

// NewClient attaches a client to an RSP connection. It first offers
// QStartNoAckMode, synchronously and in ack mode; a peer that answers
// OK stops acking from then on, one that answers empty keeps ack mode.
// An I/O failure during that handshake is returned.
func NewClient(conn io.ReadWriter) (*Client, error) {
	c := &Client{t: newTransport(conn), conn: conn, cmd: make([]byte, 0, 64)}
	r, err := c.transact([]byte("QStartNoAckMode"))
	if err != nil {
		return nil, fmt.Errorf("gdb: QStartNoAckMode handshake: %w", err)
	}
	c.t.noAck = string(r) == "OK" // the OK itself was acked by recv
	return c, nil
}

// Stats returns protocol traffic counters. Like every call but
// Interrupt, it belongs to the caller's goroutine.
func (c *Client) Stats() Stats { return c.t.stats }

// SetStopTimeout bounds each wait for the stop that ends a resume; zero
// (the default) waits forever. A wait that lasts the bound (at most
// twice it) fails with ErrTimeout, and the client closes the link, so a
// target that never stops cannot hold its caller. Set it once, before
// the first resume.
func (c *Client) SetStopTimeout(d time.Duration) {
	c.dog = link.NewWatchdog(d, func() {
		if cl, ok := c.conn.(io.Closer); ok {
			_ = cl.Close()
		}
	})
}

// arm starts a bounded wait for a stop.
func (c *Client) arm() {
	if c.dog != nil {
		c.dog.Arm()
	}
}

// disarm ends the bounded wait armed for a read that returned err. A
// wait the watchdog ended (by closing the link) has lost its link
// whatever the read returned, so it is reported as ErrTimeout.
func (c *Client) disarm(err error) error {
	if c.dog != nil && c.dog.Disarm() {
		return ErrTimeout
	}
	return err
}

// recv reads one reply inline from the connection.
func (c *Client) recv() ([]byte, error) {
	for {
		pkt, err := c.t.readPacket()
		if err == ErrInterrupt {
			continue
		}
		return pkt, err
	}
}

// transact sends a command and returns its reply, which is valid until
// the next read.
func (c *Client) transact(payload []byte) ([]byte, error) {
	if err := c.t.sendPacket(payload); err != nil {
		return nil, err
	}
	c.t.stats.RoundTrips++
	return c.recv()
}

// stop parses a stop reply into the client's event.
func (c *Client) stop(r []byte) (*StopEvent, error) {
	if err := parseStop(r, &c.ev); err != nil {
		return nil, err
	}
	return &c.ev, nil
}

// checkOK validates an "OK" reply.
func checkOK(reply []byte, what string) error {
	if string(reply) == "OK" {
		return nil
	}
	return fmt.Errorf("gdb: %s failed: %q", what, reply)
}

// QuerySupported performs the initial feature handshake.
func (c *Client) QuerySupported() (string, error) {
	r, err := c.transact([]byte("qSupported:swbreak+"))
	return string(r), err
}

// HaltReason sends '?' and parses the current stop state.
func (c *Client) HaltReason() (*StopEvent, error) {
	r, err := c.transact([]byte("?"))
	if err != nil {
		return nil, err
	}
	return c.stop(r)
}

// ReadRegisters fetches the whole register file in one 'g' transaction.
func (c *Client) ReadRegisters() (*Regs, error) {
	r, err := c.transact([]byte("g"))
	if err != nil {
		return nil, err
	}
	if len(r) < NumRSPRegs*8 {
		return nil, fmt.Errorf("gdb: short g reply (%d bytes)", len(r))
	}
	regs := &Regs{}
	for i := 0; i < NumRSPRegs; i++ {
		v, err := parseU32LE(r[i*8 : i*8+8])
		if err != nil {
			return nil, err
		}
		switch {
		case i < 32:
			regs.GPR[i] = v
		case i == RegPC:
			regs.PC = v
		case i <= RegScratch:
			regs.SR[i-RegStatus] = v
		case i == RegCycle:
			regs.Cycles |= uint64(v)
		case i == RegCycleH:
			regs.Cycles |= uint64(v) << 32
		}
	}
	return regs, nil
}

// command starts building a command in the client's scratch buffer:
// the prefix, then n in hex.
func (c *Client) command(prefix string, n uint64) []byte {
	c.cmd = strconv.AppendUint(append(c.cmd[:0], prefix...), n, 16)
	return c.cmd
}

// ReadRegister fetches one register by RSP number.
func (c *Client) ReadRegister(n int) (uint32, error) {
	r, err := c.transact(c.command("p", uint64(n)))
	if err != nil {
		return 0, err
	}
	return parseU32LE(r)
}

// WriteRegister sets one register by RSP number.
func (c *Client) WriteRegister(n int, v uint32) error {
	cmd := append(c.command("P", uint64(n)), '=')
	r, err := c.transact(appendHexU32LE(cmd, v))
	if err != nil {
		return err
	}
	return checkOK(r, "write register")
}

// ReadPC fetches the program counter.
func (c *Client) ReadPC() (uint32, error) { return c.ReadRegister(RegPC) }

// ReadMemory fetches length bytes from the target. Like
// ReadMemoryContinue's, the bytes are decoded into the client's own
// buffer and are valid until the next read: copy them to keep them.
func (c *Client) ReadMemory(addr uint32, length int) ([]byte, error) {
	r, err := c.transact(c.addrLen("m", addr, length))
	if err != nil {
		return nil, err
	}
	if err := c.transferReply('m', r); err != nil {
		return nil, err
	}
	return c.data, nil
}

// memoryReply appends the bytes an 'm' reply carries to dst.
func memoryReply(dst, r []byte) ([]byte, error) {
	if bytes.HasPrefix(r, []byte("E")) {
		return nil, fmt.Errorf("gdb: memory read failed: %s", r)
	}
	return appendUnhex(dst, r)
}

// ReadMemoryContinue is ReadMemory followed by Continue, with both
// commands sent in one write where the link allows (see
// transferContinue). It returns the bytes read, valid until the next
// call, and the stop that ended the resume.
func (c *Client) ReadMemoryContinue(addr uint32, length int) ([]byte, *StopEvent, error) {
	ev, err := c.transferContinue(c.addrLen("m", addr, length))
	if err != nil {
		return nil, nil, err
	}
	return c.data, ev, nil
}

// addrLen builds "<prefix><addr>,<length>" in hex.
func (c *Client) addrLen(prefix string, addr uint32, length int) []byte {
	return strconv.AppendUint(append(c.command(prefix, uint64(addr)), ','), uint64(length), 16)
}

// WriteMemory stores bytes on the target.
func (c *Client) WriteMemory(addr uint32, data []byte) error {
	r, err := c.transact(c.memoryWrite(addr, data))
	if err != nil {
		return err
	}
	return checkOK(r, "write memory")
}

// memoryWrite builds "M<addr>,<length>:<hex data>".
func (c *Client) memoryWrite(addr uint32, data []byte) []byte {
	c.cmd = appendHex(append(c.addrLen("M", addr, len(data)), ':'), data)
	return c.cmd
}

// WriteMemoryContinue is WriteMemory followed by Continue, with both
// commands sent in one write where the link allows (see
// transferContinue). It returns the stop that ended the resume.
func (c *Client) WriteMemoryContinue(addr uint32, data []byte) (*StopEvent, error) {
	return c.transferContinue(c.memoryWrite(addr, data))
}

// transferContinue runs a memory transfer (an 'm' or 'M' command) and
// the resume that follows it, and returns the stop that ends the
// resume. In no-ack mode, when both frames fit the stub's read buffer,
// it writes the transfer and "c" at once: the stub answers the transfer
// together with the stop, in one write. The resume then runs the
// target whatever the transfer's outcome, so a refused transfer still
// waits for the stop before its error returns, and the client is never
// left running. Otherwise (ack mode, or a transfer too large) it runs
// the transfer alone and resumes only after it succeeded.
func (c *Client) transferContinue(payload []byte) (*StopEvent, error) {
	sent, err := c.t.sendWithContinue(payload)
	if !sent {
		r, err := c.transact(payload)
		if err == nil {
			err = c.transferReply(payload[0], r)
		}
		if err != nil {
			return nil, err
		}
		return c.Continue()
	}
	if err != nil {
		return nil, err
	}
	c.t.stats.RoundTrips++
	c.arm()
	r, err := c.recv()
	if err != nil {
		return nil, c.disarm(err)
	}
	// Consume the reply before the stop read reuses the read buffer.
	terr := c.transferReply(payload[0], r)
	ev, err := c.waitStop()
	if terr != nil {
		return nil, errors.Join(terr, err)
	}
	return ev, err
}

// transferReply checks the reply to an 'm' or 'M' command; an 'm'
// reply's bytes are decoded into c.data.
func (c *Client) transferReply(cmd byte, r []byte) error {
	if cmd == 'M' {
		return checkOK(r, "write memory")
	}
	data, err := memoryReply(c.data[:0], r)
	if err == nil {
		c.data = data
	}
	return err
}

// point sends a Z/z breakpoint or watchpoint command and checks its OK.
func (c *Client) point(prefix string, addr uint32, length int, what string) error {
	r, err := c.transact(c.addrLen(prefix, addr, length))
	if err != nil {
		return err
	}
	return checkOK(r, what)
}

// SetBreakpoint sets a software breakpoint (Z0).
func (c *Client) SetBreakpoint(addr uint32) error {
	return c.point("Z0,", addr, 4, "set breakpoint")
}

// ClearBreakpoint removes a software breakpoint (z0).
func (c *Client) ClearBreakpoint(addr uint32) error {
	return c.point("z0,", addr, 4, "clear breakpoint")
}

// SetHWBreakpoint arms a hardware breakpoint (Z1).
func (c *Client) SetHWBreakpoint(addr uint32) error {
	return c.point("Z1,", addr, 4, "set hw breakpoint")
}

// SetWatchpoint arms a write watchpoint (Z2).
func (c *Client) SetWatchpoint(addr uint32, length int) error {
	return c.point("Z2,", addr, length, "set watchpoint")
}

// ClearWatchpoint removes a write watchpoint (z2).
func (c *Client) ClearWatchpoint(addr uint32) error {
	return c.point("z2,", addr, 4, "clear watchpoint")
}

// Step executes one instruction and returns the stop event.
func (c *Client) Step() (*StopEvent, error) {
	r, err := c.transact([]byte("s"))
	if err != nil {
		return nil, err
	}
	return c.stop(r)
}

// Continue resumes the target and returns the stop that ends the
// resume: a breakpoint, a watchpoint, the guest's exit, or a break-in
// (Interrupt) from another goroutine.
func (c *Client) Continue() (*StopEvent, error) {
	if err := c.t.sendPacket([]byte("c")); err != nil {
		return nil, err
	}
	c.arm()
	return c.waitStop()
}

// waitStop reads the stop that ends a resume, within the bound arm
// started.
func (c *Client) waitStop() (*StopEvent, error) {
	r, err := c.recv()
	if err = c.disarm(err); err != nil {
		return nil, err
	}
	return c.stop(r)
}

// RunQuantum runs the target for at most budget instructions using the
// qRun extension — one full RSP round trip through the host OS per
// call, which is the per-cycle lock-step synchronization cost the
// GDB-Wrapper scheme pays. It returns (nil, executed) when the budget
// was exhausted with the target still runnable, or the stop event.
func (c *Client) RunQuantum(budget uint64) (*StopEvent, uint64, error) {
	r, err := c.transact(c.command("qRun,", budget))
	if err != nil {
		return nil, 0, err
	}
	if len(r) > 0 && r[0] == 'B' {
		executed, ok := parseHex(r[1:])
		if !ok {
			return nil, 0, fmt.Errorf("gdb: bad qRun reply %q", r)
		}
		return nil, executed, nil
	}
	ev, err := c.stop(r)
	return ev, 0, err
}

// Interrupt sends the break-in byte to stop a running target. It is
// the one call that is safe from another goroutine: the resume blocked
// on the caller's goroutine returns the break-in stop.
func (c *Client) Interrupt() error {
	_, err := c.conn.Write([]byte{InterruptByte})
	return err
}

// Kill terminates the stub. No reply is defined for 'k', and no ack is
// awaited. No resume follows, so Kill also stops the stop watchdog: a
// finished session leaves no timer behind.
func (c *Client) Kill() error {
	if c.dog != nil {
		c.dog.Stop()
	}
	return c.t.sendReplyNoAckWait([]byte("k"), false)
}

// Detach cleanly detaches from the stub.
func (c *Client) Detach() error {
	_, err := c.transact([]byte("D"))
	return err
}

// parseStop decodes an S/T/W stop reply into ev. In a T reply it
// decodes the watch address and the expedited PC and cycle counter; a
// malformed one is an error, never a zero. Other fields are skipped.
func parseStop(pkt []byte, ev *StopEvent) error {
	*ev = StopEvent{}
	if len(pkt) < 3 {
		return fmt.Errorf("gdb: short stop reply %q", pkt)
	}
	sig, err := parseHexByte(pkt[1], pkt[2])
	if err != nil {
		return fmt.Errorf("gdb: bad signal in stop reply %q", pkt)
	}
	switch pkt[0] {
	case 'S':
		ev.Signal = sig
		return nil
	case 'W':
		ev.Exited = true
		ev.ExitCode = sig
		return nil
	case 'T':
		ev.Signal = sig
		var lo, hi uint32
		var seen uint8 // expedited registers found: 1 PC, 2 cycle, 4 cycleh
		for rest := pkt[3:]; len(rest) > 0; {
			var field []byte
			field, rest, _ = bytes.Cut(rest, []byte(";"))
			key, val, _ := bytes.Cut(field, []byte(":"))
			if string(key) == "watch" {
				addr, ok := parseHex(val)
				if !ok || addr > math.MaxUint32 {
					return fmt.Errorf("gdb: bad watch address in stop reply %q", pkt)
				}
				ev.IsWatch = true
				ev.WatchAddr = uint32(addr)
				continue
			}
			n, isReg := parseHex(key)
			if !isReg {
				continue // a named field, such as swbreak
			}
			v, err := parseU32LE(val)
			if err != nil {
				return fmt.Errorf("gdb: bad register %s in stop reply %q", key, pkt)
			}
			switch n {
			case RegPC:
				ev.PC, seen = v, seen|1
			case RegCycle:
				lo, seen = v, seen|2
			case RegCycleH:
				hi, seen = v, seen|4
			}
		}
		ev.Cycles = uint64(hi)<<32 | uint64(lo)
		ev.Expedited = seen == 7
		return nil
	}
	return fmt.Errorf("gdb: unrecognized stop reply %q", pkt)
}

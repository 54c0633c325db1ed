package gdb

import (
	"bytes"
	"io"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"cosim/internal/iss"
)

// RSP register numbers of the PC and the cycle counter, the registers
// a stop reply expedites.
const (
	RegPC     = 32
	RegCycle  = 38
	RegCycleH = 39
)

// Fixed replies, shared read-only by every stub.
var (
	replyOK  = []byte("OK")
	replyE01 = []byte("E01")
	replyE02 = []byte("E02")
)

// Stub serves the GDB Remote Serial Protocol for one CPU: the packets
// the co-simulation schemes send, which are QStartNoAckMode, Z0 and Z2,
// m and M, a bare c or s, k, and the qRun extension. Every other packet
// gets RSP's empty reply. The stub owns the CPU while serving:
// run-control packets execute instructions on the caller-provided
// core, exactly like a gdbserver embedded in an ISS.
//
// "qRun,<n>" runs at most n instructions and replies either with a
// stop reply or with "B<executed>" if the budget was exhausted. This
// bounded-run primitive is what the GDB-Wrapper co-simulation scheme
// uses to keep the ISS and SystemC in lock-step.
type Stub struct {
	cpu *iss.CPU
	t   *transport

	// hangUp is set when the host end closes (HangUpOnClose,
	// Inline.Close), possibly from another goroutine, and never
	// cleared: it ends a continue at its next chunk, and every later
	// continue after its first chunk.
	hangUp atomic.Bool

	// reply and mem are scratch buffers for building replies.
	reply, mem []byte
}

const (
	// chunkBudget is the number of instructions a continue runs between
	// hang-up checks.
	chunkBudget = 50_000
	// idleSleep is how long the stub sleeps when the CPU is in WFI with
	// no pending interrupt.
	idleSleep = 50 * time.Microsecond
)

// NewStub creates a stub for the CPU over the connection.
func NewStub(cpu *iss.CPU, conn io.ReadWriter) *Stub {
	return &Stub{cpu: cpu, t: newTransport(conn)}
}

// Stats returns protocol traffic counters.
func (s *Stub) Stats() Stats { return s.t.stats }

// HangUpOnClose returns host, the peer's end of the link Serve serves,
// with a Close that first hangs the stub up. Serve reads nothing while
// a continue runs, so closing this end (a stop watchdog) is what ends a
// continue that never stops, at its next chunk.
func (s *Stub) HangUpOnClose(host io.ReadWriteCloser) io.ReadWriteCloser {
	return hangUpEnd{host, s}
}

// hangUpEnd is a host end whose Close hangs its stub up.
type hangUpEnd struct {
	io.ReadWriteCloser
	stub *Stub
}

func (h hangUpEnd) Close() error {
	h.stub.hangUp.Store(true)
	return h.ReadWriteCloser.Close()
}

// Serve processes packets until kill or connection close, each on the
// calling goroutine, a continue to its stop included. In no-ack mode a
// reply waits while the peer's next packet is already buffered whole
// and goes out with the next reply, in one write: a transfer pipelined
// with a continue is answered together with the stop.
func (s *Stub) Serve() error {
	for {
		pkt, err := s.t.readPacket()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if done, err := s.handle(pkt); err != nil || done {
			return err
		}
	}
}

// handle answers one command packet: Serve's loop and Inline's step
// both run it. done reports a kill.
func (s *Stub) handle(pkt []byte) (done bool, err error) {
	reply, done := s.dispatch(pkt)
	if reply != nil {
		hold := s.t.noAck && !done && s.t.packetBuffered()
		err = s.t.sendReplyNoAckWait(reply, hold)
	}
	return done, err
}

// dispatch handles one command packet.
func (s *Stub) dispatch(pkt []byte) (reply []byte, done bool) {
	if len(pkt) == 0 {
		return []byte{}, false
	}
	switch pkt[0] {
	case 'm':
		return s.readMem(pkt[1:]), false
	case 'M':
		return s.writeMem(pkt[1:]), false
	case 'Z':
		return s.setPoint(pkt[1:]), false
	case 'c':
		if len(pkt) == 1 {
			return s.cont(), false
		}
	case 's':
		if len(pkt) == 1 {
			return s.step(), false
		}
	case 'k':
		return nil, true
	case 'q':
		if bytes.HasPrefix(pkt, []byte("qRun,")) {
			return s.runQuantum(pkt[len("qRun,"):]), false
		}
	case 'Q':
		if string(pkt) == "QStartNoAckMode" {
			// The request itself was acked on receipt; from here on
			// neither side acks.
			s.t.noAck = true
			return replyOK, false
		}
	}
	return []byte{}, false // unsupported: empty reply per RSP
}

// parseAddrLen parses "addr,len", rejecting a length no packet can carry
// (which also keeps the int conversion non-negative).
func parseAddrLen(arg []byte) (uint32, int, bool) {
	addr, length, ok := parseHexPair(arg)
	return uint32(addr), int(length), ok && addr <= 0xffffffff && length <= MaxPacketSize*2
}

// readMem handles 'm addr,len'. Breakpoints live in the CPU, not in
// memory, so a read returns the program's own words.
func (s *Stub) readMem(arg []byte) []byte {
	addr, length, ok := parseAddrLen(arg)
	if !ok || length > MaxPacketSize/2 {
		return replyE01
	}
	buf := slices.Grow(s.mem[:0], length)[:length] // ReadBytes fills it
	s.mem = buf
	if err := iss.ReadBytes(s.cpu.Bus(), addr, buf); err != nil {
		return replyE02
	}
	s.reply = appendHex(s.reply[:0], buf)
	return s.reply
}

// writeMem handles 'M addr,len:hex'; the hex is decoded in place.
// The written range is invalidated in the ISS's decode cache, so code
// written over executed code runs as written, and the breakpoints
// there stay armed.
func (s *Stub) writeMem(arg []byte) []byte {
	head, hex, found := bytes.Cut(arg, []byte(":"))
	addr, length, ok := parseAddrLen(head)
	if !found || !ok {
		return replyE01
	}
	data, err := appendUnhex(hex[:0], hex)
	if err != nil || len(data) != length {
		return replyE01
	}
	werr := iss.WriteBytes(s.cpu.Bus(), addr, data)
	s.cpu.InvalidateDecode(addr, uint32(len(data)))
	if werr != nil {
		return replyE02
	}
	return replyOK
}

// parsePoint parses "type,addr,kind".
func parsePoint(arg []byte) (ptype byte, addr uint32, kind int, ok bool) {
	if len(arg) < 2 || arg[1] != ',' {
		return 0, 0, 0, false
	}
	a, k, ok := parseHexPair(arg[2:])
	return arg[0], uint32(a), int(k), ok && a <= 0xffffffff && k <= MaxPacketSize
}

// setPoint handles Z packets: Z0 = software breakpoint, Z2 = write
// watchpoint. A breakpoint is the CPU's breakpoint flag: the stub
// writes no EBREAK into memory, so a stop and its resume touch neither
// memory nor the decode cache. It must name memory the bus can read
// (E02 otherwise), as when it was planted there.
func (s *Stub) setPoint(arg []byte) []byte {
	ptype, addr, kind, ok := parsePoint(arg)
	if !ok {
		return replyE01
	}
	switch ptype {
	case '0':
		if _, err := s.cpu.Bus().Read(addr, 4); err != nil {
			return replyE02
		}
		s.cpu.AddBreakpoint(addr)
		return replyOK
	case '2':
		if kind <= 0 {
			kind = 4
		}
		s.cpu.AddWatchpoint(addr, uint32(kind))
		return replyOK
	}
	return []byte{} // unsupported point type
}

// appendStopT appends the T05 reply of a breakpoint stop, or of a write
// watchpoint hit at addr when watch is set. Like gdbserver, it expedites
// the registers the debugger needs at every stop (the PC and the cycle
// counter) as "nn:<8 hex digits, target byte order>;" fields, so stop
// handling costs no 'g' round trip.
func appendStopT(dst []byte, watch bool, addr, pc uint32, cycles uint64) []byte {
	if watch {
		dst = strconv.AppendUint(append(dst, "T05watch:"...), uint64(addr), 16)
		dst = append(dst, ';')
	} else {
		dst = append(dst, "T05swbreak:;"...)
	}
	return appendExpedited(dst, pc, cycles)
}

// appendExpedited appends the expedited PC and cycle counter fields.
func appendExpedited(dst []byte, pc uint32, cycles uint64) []byte {
	dst = appendRegField(dst, RegPC, pc)
	dst = appendRegField(dst, RegCycle, uint32(cycles))
	return appendRegField(dst, RegCycleH, uint32(cycles>>32))
}

// appendRegField appends one expedited register, "nn:<value>;".
func appendRegField(dst []byte, n int, v uint32) []byte {
	dst = appendHexU32LE(append(dst, hexDigits[n>>4], hexDigits[n&0xf], ':'), v)
	return append(dst, ';')
}

// stopReply converts a CPU stop into an RSP stop-reply packet, or nil
// if execution should continue (budget exhausted).
func (s *Stub) stopReply(stop iss.Stop) []byte {
	switch stop {
	case iss.StopEBreak, iss.StopBreak:
		s.reply = appendStopT(s.reply[:0], false, 0, s.cpu.PC, s.cpu.Cycles())
		return s.reply
	case iss.StopWatch:
		s.reply = appendStopT(s.reply[:0], true, s.cpu.WatchHit(), s.cpu.PC, s.cpu.Cycles())
		return s.reply
	case iss.StopHalt:
		return []byte("W00")
	case iss.StopEcall:
		return []byte("S1f")
	case iss.StopError:
		return []byte("S0b")
	}
	return nil
}

// runQuantum implements the qRun,<n> lock-step extension: run up to n
// instructions, replying "B<executed-hex>" when the budget is exhausted
// (target still runnable) or with a normal stop reply.
func (s *Stub) runQuantum(arg []byte) []byte {
	budget, ok := parseHex(arg)
	if !ok || budget == 0 {
		return replyE01
	}
	stop, executed := s.cpu.Run(budget)
	if r := s.stopReply(stop); r != nil {
		return r
	}
	// StopIdle (WFI) also reports as budget-exhausted: in lock-step mode
	// the master advances time and retries.
	s.reply = strconv.AppendUint(append(s.reply[:0], 'B'), executed, 16)
	return s.reply
}

// step implements 's': one instruction, run over the breakpoint the CPU
// stopped at.
func (s *Stub) step() []byte {
	s.cpu.StepOverBreakpoint()
	if r := s.stopReply(s.cpu.Step()); r != nil {
		return r
	}
	return []byte("S05")
}

// cont implements 'c': it runs the CPU, which steps over the breakpoint
// it last stopped at itself, to its stop. keepRunning takes on a
// continue whose first chunk ends without one.
func (s *Stub) cont() []byte {
	if r := s.runChunk(); r != nil {
		return r
	}
	return s.keepRunning()
}

// runChunk runs one chunk of a continue and returns its stop reply, or
// nil if the budget ran out or the CPU idles in WFI with nothing
// pending.
func (s *Stub) runChunk() []byte {
	stop, _ := s.cpu.Run(chunkBudget)
	return s.stopReply(stop)
}

// keepRunning runs a continue whose first chunk ended without a stop
// until it stops or a hang-up ends it with SIGINT. The hang-up is
// checked between chunks, and a CPU idle in WFI is given idleSleep
// before the next.
func (s *Stub) keepRunning() []byte {
	for {
		if s.hangUp.Load() {
			return []byte("S02")
		}
		if s.cpu.Sleeping() {
			time.Sleep(idleSleep)
		}
		if r := s.runChunk(); r != nil {
			return r
		}
	}
}

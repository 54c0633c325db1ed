package gdb

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"cosim/internal/isa"
	"cosim/internal/iss"
)

// Register numbering in the RSP register file ('g'/'p'/'P' packets):
// 0..31 are the GPRs, then PC and the special registers.
const (
	RegPC      = 32
	RegStatus  = 33
	RegEPC     = 34
	RegCause   = 35
	RegIVec    = 36
	RegScratch = 37
	RegCycle   = 38
	RegCycleH  = 39
	NumRSPRegs = 40
)

// Fixed replies, shared read-only by every stub.
var (
	replyOK   = []byte("OK")
	replyE01  = []byte("E01")
	replyE02  = []byte("E02")
	supported = []byte(fmt.Sprintf("PacketSize=%x;QStartNoAckMode+;swbreak+;hwbreak+;qRun+;qXfer:features:read+", MaxPacketSize))
)

// Stub serves the GDB Remote Serial Protocol for one CPU. It owns the
// CPU while serving: run-control packets execute instructions on the
// caller-provided core, exactly like a gdbserver embedded in an ISS.
//
// Beyond the standard packet set the stub implements "qRun,<n>": run at
// most n instructions and reply either with a stop reply or with
// "B<executed>" if the budget was exhausted. This bounded-run primitive
// is what the GDB-Wrapper co-simulation scheme uses to keep the ISS and
// SystemC in lock-step.
type Stub struct {
	cpu *iss.CPU
	t   *transport

	// breakIn is set when a 0x03 byte arrives and polled between the
	// chunks of a continue; each continue starts with it clear.
	breakIn atomic.Bool
	// hangUp is set when the link goes (Serve's return, Inline.Close)
	// and never cleared: like a break-in, it ends a continue at its next
	// chunk, and every later continue after its first.
	hangUp atomic.Bool

	// reply and mem are scratch buffers for building replies. Only one
	// of the serve loop and the runner touches them at a time.
	reply, mem []byte

	lastSignal byte
}

const (
	// chunkBudget is the number of instructions a continue runs between
	// break-in checks; the first chunk runs where the packet was read.
	chunkBudget = 50_000
	// idleSleep is how long the stub sleeps when the CPU is in WFI with
	// no pending interrupt.
	idleSleep = 50 * time.Microsecond
)

// NewStub creates a stub for the CPU over the connection.
func NewStub(cpu *iss.CPU, conn io.ReadWriter) *Stub {
	return &Stub{
		cpu:        cpu,
		t:          newTransport(conn),
		lastSignal: 5,
	}
}

// Stats returns protocol traffic counters.
func (s *Stub) Stats() Stats { return s.t.stats }

// Serve processes packets until kill, detach, or connection close. A
// continue runs its first chunk (chunkBudget instructions) in the loop
// itself and, if it stops there, is answered at once. A continue that
// uses up that chunk, or idles in WFI, is handed to a runner goroutine
// that ends with the continue's stop reply, and the loop goes back to
// reading, so it sees a break-in; the next command waits for the stop
// reply. Every other command runs in the loop itself.
// In no-ack mode a reply waits while the peer's next packet is already
// buffered whole and goes out with the next reply, in one write: a
// transfer pipelined with a continue is answered together with the stop.
func (s *Stub) Serve() error {
	stopped := make(chan error, 1)
	running := false
	defer func() {
		if running {
			// End the running continue, then wait for its runner to
			// deliver the stop reply and exit.
			s.hangUp.Store(true)
			<-stopped
		}
	}()
	for {
		pkt, err := s.t.readPacket()
		if err == ErrInterrupt {
			s.breakIn.Store(true) // a stray one is cleared by the next continue
			continue
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if running {
			running = false
			if err := <-stopped; err != nil {
				return err
			}
		}
		var done bool
		running, done, err = s.handle(pkt)
		if err != nil || done {
			return err
		}
		if running {
			go func() { stopped <- s.t.sendReplyNoAckWait(s.keepRunning(), false) }()
		}
	}
}

// handle answers one command packet: Serve's loop and Inline's step
// both run it. A continue runs its first chunk here; if that chunk ends
// without a stop, handle reports it running, with no reply sent, and
// the caller runs keepRunning and sends its stop reply. done reports a
// kill or detach.
func (s *Stub) handle(pkt []byte) (running, done bool, err error) {
	if len(pkt) > 0 && pkt[0] == 'c' {
		s.breakIn.Store(false)
		if reply := s.resume(false, pkt[1:]); reply != nil {
			return false, false, s.t.sendReplyNoAckWait(reply, false)
		}
		return true, false, nil
	}
	reply, done := s.dispatch(pkt)
	if reply != nil {
		hold := s.t.noAck && !done && s.t.packetBuffered()
		err = s.t.sendReplyNoAckWait(reply, hold)
	}
	return false, done, err
}

// dispatch handles one command packet.
func (s *Stub) dispatch(pkt []byte) (reply []byte, done bool) {
	if len(pkt) == 0 {
		return []byte{}, false
	}
	switch pkt[0] {
	case '?':
		s.reply = append(s.reply[:0], 'S', hexDigits[s.lastSignal>>4], hexDigits[s.lastSignal&0xf])
		return s.reply, false
	case 'g':
		return s.readAllRegs(), false
	case 'G':
		return s.writeAllRegs(pkt[1:]), false
	case 'p':
		return s.readOneReg(pkt[1:]), false
	case 'P':
		return s.writeOneReg(pkt[1:]), false
	case 'm':
		return s.readMem(pkt[1:]), false
	case 'M':
		return s.writeMemHex(pkt[1:]), false
	case 'X':
		return s.writeMemBin(pkt[1:]), false
	case 'Z':
		return s.setPoint(pkt[1:]), false
	case 'z':
		return s.clearPoint(pkt[1:]), false
	case 's':
		return s.resume(true, pkt[1:]), false
	case 'k':
		return nil, true
	case 'D':
		return replyOK, true
	case 'H':
		return replyOK, false
	case 'q':
		return s.query(pkt), false
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

func (s *Stub) query(pkt []byte) []byte {
	switch {
	case bytes.HasPrefix(pkt, []byte("qRun,")):
		return s.runQuantum(pkt[len("qRun,"):])
	case bytes.HasPrefix(pkt, []byte("qSupported")):
		return supported
	case bytes.HasPrefix(pkt, []byte("qXfer:features:read:target.xml:")):
		return s.featuresXML(pkt[len("qXfer:features:read:target.xml:"):])
	case string(pkt) == "qC":
		return []byte("QC0")
	case string(pkt) == "qAttached":
		return []byte("1")
	case string(pkt) == "qfThreadInfo":
		return []byte("m0")
	case string(pkt) == "qsThreadInfo":
		return []byte("l")
	}
	return []byte{}
}

// targetXML is the gdb target description: 32 GPRs, PC, the special
// registers and the cycle counters, in 'g'-packet order.
var targetXML = func() []byte {
	var b bytes.Buffer
	b.WriteString(`<?xml version="1.0"?>` + "\n")
	b.WriteString(`<target version="1.0"><architecture>fv32</architecture>` + "\n")
	b.WriteString(`<feature name="org.cosim.fv32.core">` + "\n")
	for i := 0; i < 32; i++ {
		fmt.Fprintf(&b, `<reg name="%s" bitsize="32" regnum="%d"/>`+"\n", isa.RegName(uint8(i)), i)
	}
	names := []string{"pc", "status", "epc", "cause", "ivec", "scratch", "cycle", "cycleh"}
	for i, n := range names {
		kind := ""
		if n == "pc" {
			kind = ` type="code_ptr"`
		}
		fmt.Fprintf(&b, `<reg name="%s" bitsize="32" regnum="%d"%s/>`+"\n", n, RegPC+i, kind)
	}
	b.WriteString(`</feature></target>` + "\n")
	return b.Bytes()
}()

// featuresXML serves a window of the target description for a
// qXfer:features:read request ("offset,length" argument).
func (s *Stub) featuresXML(arg []byte) []byte {
	off, length, ok := parseHexPair(arg)
	if !ok {
		return replyE01
	}
	if off >= uint64(len(targetXML)) {
		return []byte("l") // past the end
	}
	end := off + min(length, uint64(len(targetXML)))
	marker := byte('l')
	if end < uint64(len(targetXML)) {
		marker = 'm' // more follows
	} else {
		end = uint64(len(targetXML))
	}
	s.reply = append(append(s.reply[:0], marker), targetXML[off:end]...)
	return s.reply
}

// regValue reads one RSP-numbered register.
func (s *Stub) regValue(n int) uint32 {
	switch {
	case n >= 0 && n < 32:
		return s.cpu.Regs[n]
	case n == RegPC:
		return s.cpu.PC
	case n == RegCycle:
		return uint32(s.cpu.Cycles())
	case n == RegCycleH:
		return uint32(s.cpu.Cycles() >> 32)
	case n >= RegStatus && n <= RegScratch:
		return s.cpu.SR[n-RegStatus]
	}
	return 0
}

// setRegValue writes one RSP-numbered register (cycle counters are RO).
func (s *Stub) setRegValue(n int, v uint32) {
	switch {
	case n > 0 && n < 32:
		s.cpu.Regs[n] = v
	case n == RegPC:
		s.cpu.PC = v
	case n >= RegStatus && n <= RegScratch:
		s.cpu.SR[n-RegStatus] = v
	}
}

func (s *Stub) readAllRegs() []byte {
	s.reply = s.reply[:0]
	for i := 0; i < NumRSPRegs; i++ {
		s.reply = appendHexU32LE(s.reply, s.regValue(i))
	}
	return s.reply
}

func (s *Stub) writeAllRegs(hex []byte) []byte {
	if len(hex) < NumRSPRegs*8 {
		return replyE01
	}
	for i := 0; i < NumRSPRegs; i++ {
		v, err := parseU32LE(hex[i*8 : i*8+8])
		if err != nil {
			return replyE01
		}
		s.setRegValue(i, v)
	}
	return replyOK
}

// parseRegNum parses a hex RSP register number.
func parseRegNum(b []byte) (int, bool) {
	n, ok := parseHex(b)
	return int(n), ok && n < NumRSPRegs
}

func (s *Stub) readOneReg(arg []byte) []byte {
	n, ok := parseRegNum(arg)
	if !ok {
		return replyE01
	}
	s.reply = appendHexU32LE(s.reply[:0], s.regValue(n))
	return s.reply
}

func (s *Stub) writeOneReg(arg []byte) []byte {
	num, val, found := bytes.Cut(arg, []byte("="))
	n, ok := parseRegNum(num)
	if !found || !ok {
		return replyE01
	}
	v, err := parseU32LE(val)
	if err != nil {
		return replyE01
	}
	s.setRegValue(n, v)
	return replyOK
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

// writeMemHex handles 'M addr,len:hex'; the hex is decoded in place.
func (s *Stub) writeMemHex(arg []byte) []byte {
	head, hex, found := bytes.Cut(arg, []byte(":"))
	addr, length, ok := parseAddrLen(head)
	if !found || !ok {
		return replyE01
	}
	data, err := appendUnhex(hex[:0], hex)
	if err != nil || len(data) != length {
		return replyE01
	}
	return s.writeMem(addr, data)
}

// writeMemBin handles 'X addr,len:data' (data already unescaped).
func (s *Stub) writeMemBin(arg []byte) []byte {
	head, data, found := bytes.Cut(arg, []byte(":"))
	addr, length, ok := parseAddrLen(head)
	if !found || !ok || len(data) != length {
		return replyE01
	}
	return s.writeMem(addr, data)
}

// writeMem stores bytes. The written range is invalidated in the ISS's
// decode cache — a debugger patching live code must not leave stale
// predecoded entries behind — which keeps the breakpoints armed there.
func (s *Stub) writeMem(addr uint32, data []byte) []byte {
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

// setPoint handles Z packets: Z0 = software breakpoint, Z1 = hardware
// breakpoint, Z2 = write watchpoint. Both breakpoint kinds are the
// CPU's breakpoint flags: the stub writes no EBREAK into memory, so a
// stop and its resume touch neither memory nor the decode cache. An
// address holds one breakpoint whichever kind set it, so z0 and z1
// both clear it. A software breakpoint must name memory the bus can
// read (E02 otherwise), as when it was planted there.
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
	case '1':
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

func (s *Stub) clearPoint(arg []byte) []byte {
	ptype, addr, _, ok := parsePoint(arg)
	if !ok {
		return replyE01
	}
	switch ptype {
	case '0', '1':
		s.cpu.RemoveBreakpoint(addr)
		return replyOK
	case '2':
		s.cpu.RemoveWatchpoint(addr)
		return replyOK
	}
	return []byte{}
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
		s.lastSignal = 5
		s.reply = appendStopT(s.reply[:0], false, 0, s.cpu.PC, s.cpu.Cycles())
		return s.reply
	case iss.StopWatch:
		s.lastSignal = 5
		s.reply = appendStopT(s.reply[:0], true, s.cpu.WatchHit(), s.cpu.PC, s.cpu.Cycles())
		return s.reply
	case iss.StopHalt:
		return []byte("W00")
	case iss.StopEcall:
		s.lastSignal = 0x1f
		return []byte("S1f")
	case iss.StopError:
		s.lastSignal = 0x0b
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

// resume implements 'c' (continue) and 's' (step). An optional resume
// address may be given in arg. A continue runs one chunk and returns
// nil if that chunk ended without a stop; keepRunning takes it on. The
// CPU steps over the breakpoint it last stopped at itself, but not
// after a resume address moved the PC elsewhere.
func (s *Stub) resume(step bool, arg []byte) []byte {
	if addr, ok := parseHex(arg); ok {
		s.cpu.PC = uint32(addr)
	}
	if !step {
		return s.runChunk()
	}
	s.cpu.StepOverBreakpoint()
	if r := s.stopReply(s.cpu.Step()); r != nil {
		return r
	}
	s.lastSignal = 5
	return []byte("S05")
}

// runChunk runs one chunk of a continue and returns its stop reply, or
// nil if the budget ran out or the CPU idles in WFI with nothing
// pending.
func (s *Stub) runChunk() []byte {
	stop, _ := s.cpu.Run(chunkBudget)
	return s.stopReply(stop)
}

// keepRunning runs a continue whose first chunk ended without a stop
// until it stops or a break-in or hang-up ends it. Both are checked
// between chunks, and a CPU idle in WFI is given idleSleep before the
// next.
func (s *Stub) keepRunning() []byte {
	for {
		if s.breakIn.Load() || s.hangUp.Load() {
			s.lastSignal = 2
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

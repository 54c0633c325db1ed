// Package core implements the paper's contribution: three ISS–SystemC
// co-simulation schemes over the simulation kernel in internal/sim.
//
//   - GDBWrapper — the state-of-the-art baseline of Benini et al. [14]:
//     an explicitly instantiated wrapper module whose clocked sc_method
//     drives the ISS in lock-step through the GDB remote debugging
//     interface, one IPC round trip per clock cycle.
//   - GDBKernel — the paper's first scheme (§3): the wrapper is embedded
//     in the simulation kernel; the ISS free-runs under gdb 'continue'
//     and a begin-of-cycle kernel hook checks an in-process queue for
//     breakpoint stops, transferring data between guest variables and
//     iss_in/iss_out ports.
//   - DriverKernel — the paper's second scheme (§4): the guest runs an
//     RTOS whose device driver exchanges binary READ/WRITE messages with
//     the kernel over a data socket, and receives interrupts over a
//     second socket, with no GDB framing at all.
package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Message types of the Driver-Kernel protocol (§4.2).
const (
	MsgWrite = 1 // driver -> kernel: data for an iss_in port
	MsgRead  = 2 // driver -> kernel: request the value of an iss_out port
	MsgData  = 3 // kernel -> driver: reply to MsgRead
)

// Reserved interrupt ids on the interrupt socket (mirrors rtos).
const (
	IntDataReady = 0xfffffff0
)

// MaxMessageSize bounds a single protocol message.
const MaxMessageSize = 1 << 16

// dataBufsInUse tracks pooled payload buffers handed out by getDataBuf
// and not yet returned by Release. It exists for the leak-regression
// tests: every codec error path must leave this balanced.
var dataBufsInUse atomic.Int64

// DataBufsInUse reports the number of pooled payload buffers currently
// checked out of the codec pool. Steady-state decode/deliver/release
// loops keep it near zero; tests use it to catch decode paths that drop
// buffers on error.
func DataBufsInUse() int64 { return dataBufsInUse.Load() }

// Message is one Driver-Kernel protocol message. Port names select the
// SystemC iss_in/iss_out port (the SC_Port field of Figure 4); Cycles is
// the guest cycle counter when the driver composed the message, which
// the journal records (the kernel times a message by the guest's cycle
// count at the flush that sent it).
type Message struct {
	Type   uint32
	Cycles uint32 // WRITE/READ only
	Port   string // WRITE/READ only
	Data   []byte // WRITE/DATA only

	// pooled is the dataBufPool token backing Data when the message was
	// decoded by ReadMessage; Release hands it back. Keeping the pointer
	// here lets Release return the buffer without re-boxing it.
	pooled *[]byte
}

// wireBufPool recycles encode/decode scratch buffers so the per-cycle
// transport paths stop allocating once warm.
var wireBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// dataBufPool recycles decoded Message.Data payloads; see Message.Release.
var dataBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 256); return &b },
}

// getDataBuf returns a pooled buffer of length n plus its pool token.
func getDataBuf(n int) ([]byte, *[]byte) {
	bp := dataBufPool.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		b = make([]byte, 0, n)
		*bp = b
	}
	dataBufsInUse.Add(1)
	return b[:n], bp
}

// Release returns a decoded message's payload buffer to the codec pool
// and clears Data. Call it only once the payload is no longer referenced
// anywhere (sim.IssIn.Deliver copies, so the Driver-Kernel WRITE path
// releases right after delivery). On messages whose Data was set by the
// caller rather than by ReadMessage, Release just clears the field.
func (m *Message) Release() {
	bp := m.pooled
	m.pooled = nil
	m.Data = nil
	releaseDataBuf(bp)
}

// releaseDataBuf returns a pooled payload buffer; nil is a no-op.
func releaseDataBuf(bp *[]byte) {
	if bp == nil {
		return
	}
	*bp = (*bp)[:0]
	dataBufPool.Put(bp)
	dataBufsInUse.Add(-1)
}

// wireLen is the size of the message's frame on the wire, size word
// included. Only valid for a message that encodes.
func (m Message) wireLen() int {
	n, _ := m.bodyLen()
	return 4 + n
}

// Port-name interning: co-simulation traffic repeats a handful of port
// names millions of times, so decoding shares one string per name
// instead of allocating each time. The table is bounded so a hostile
// stream of unique names cannot grow it without limit.
var (
	portNamesMu sync.RWMutex
	portNames   = make(map[string]string)
)

const maxInternedPorts = 1024

func internPort(b []byte) string {
	portNamesMu.RLock()
	s, ok := portNames[string(b)] // compiler elides the []byte->string copy for the lookup
	portNamesMu.RUnlock()
	if ok {
		return s
	}
	s = string(b)
	portNamesMu.Lock()
	if len(portNames) < maxInternedPorts {
		portNames[s] = s
	}
	portNamesMu.Unlock()
	return s
}

// bodyLen returns the number of wire bytes following the size word.
func (m Message) bodyLen() (int, error) {
	switch m.Type {
	case MsgWrite:
		return 12 + len(m.Port) + 4 + len(m.Data), nil
	case MsgRead:
		return 12 + len(m.Port), nil
	case MsgData:
		return 8 + len(m.Data), nil
	}
	return 0, fmt.Errorf("core: unknown message type %d", m.Type)
}

// AppendTo appends the message's wire format to dst and returns the
// extended slice. It allocates only when dst lacks capacity.
func (m Message) AppendTo(dst []byte) ([]byte, error) {
	n, err := m.bodyLen()
	if err != nil {
		return dst, err
	}
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(n))
	dst = le.AppendUint32(dst, m.Type)
	switch m.Type {
	case MsgWrite:
		dst = le.AppendUint32(dst, m.Cycles)
		dst = le.AppendUint32(dst, uint32(len(m.Port)))
		dst = append(dst, m.Port...)
		dst = le.AppendUint32(dst, uint32(len(m.Data)))
		dst = append(dst, m.Data...)
	case MsgRead:
		dst = le.AppendUint32(dst, m.Cycles)
		dst = le.AppendUint32(dst, uint32(len(m.Port)))
		dst = append(dst, m.Port...)
	case MsgData:
		dst = le.AppendUint32(dst, uint32(len(m.Data)))
		dst = append(dst, m.Data...)
	}
	return dst, nil
}

// Encode renders the message in wire format:
//
//	WRITE: [size][type=1][cycles][namelen][name][datalen][data]
//	READ:  [size][type=2][cycles][namelen][name]
//	DATA:  [size][type=3][datalen][data]
//
// size counts the bytes following the size word. The result is a single
// exact-size allocation; hot paths that can bound the buffer's lifetime
// should prefer WriteMessage, which allocates nothing in steady state.
func (m Message) Encode() ([]byte, error) {
	n, err := m.bodyLen()
	if err != nil {
		return nil, err
	}
	return m.AppendTo(make([]byte, 0, 4+n))
}

// WriteMessage encodes m through a pooled scratch buffer and writes it
// to w in one call.
func WriteMessage(w io.Writer, m Message) error {
	bp := wireBufPool.Get().(*[]byte)
	buf, err := m.AppendTo((*bp)[:0])
	if err == nil {
		_, err = w.Write(buf)
	}
	*bp = buf
	wireBufPool.Put(bp)
	return err
}

// decodeBody decodes one message body (type word onward, size word
// already stripped). The body must hold exactly one message: trailing
// bytes are rejected, so an accepted frame re-encodes to itself. A
// decoded payload comes from the codec buffer pool; decodeBody itself
// never leaks — the pooled buffer is checked out only after every
// check has passed — so error returns carry no buffers to release.
func decodeBody(body []byte) (Message, error) {
	le := binary.LittleEndian
	if len(body) < 4 {
		return Message{}, fmt.Errorf("core: truncated message header")
	}
	var m Message
	m.Type = le.Uint32(body[0:4])
	rest := body[4:]
	need := func(n int) error {
		if len(rest) < n {
			return fmt.Errorf("core: truncated message type %d", m.Type)
		}
		return nil
	}
	switch m.Type {
	case MsgWrite, MsgRead:
		if err := need(8); err != nil {
			return Message{}, err
		}
		m.Cycles = le.Uint32(rest[0:4])
		nameLen := le.Uint32(rest[4:8])
		rest = rest[8:]
		if err := need(int(nameLen)); err != nil {
			return Message{}, err
		}
		m.Port = internPort(rest[:nameLen])
		rest = rest[nameLen:]
	case MsgData:
	default:
		return Message{}, fmt.Errorf("core: unknown message type %d", m.Type)
	}
	var payload []byte
	if m.Type != MsgRead {
		if err := need(4); err != nil {
			return Message{}, err
		}
		dataLen := le.Uint32(rest[0:4])
		rest = rest[4:]
		if err := need(int(dataLen)); err != nil {
			return Message{}, err
		}
		payload, rest = rest[:dataLen], rest[dataLen:]
	}
	if len(rest) != 0 {
		return Message{}, fmt.Errorf("core: message type %d has %d trailing bytes", m.Type, len(rest))
	}
	if len(payload) > 0 {
		m.Data, m.pooled = getDataBuf(len(payload))
		copy(m.Data, payload)
	}
	return m, nil
}

// ReadMessage decodes one size-prefixed message from the stream,
// rejecting frames larger than MaxMessageSize. The frame body is read
// into a pooled scratch buffer; the returned message's Data (if any)
// comes from the codec buffer pool, and callers on steady-state paths
// should hand it back with Release once delivered.
func ReadMessage(r *bufio.Reader) (Message, error) {
	bp := wireBufPool.Get().(*[]byte)
	defer wireBufPool.Put(bp)
	// The size header is read into the pooled buffer too: a local array
	// handed to io.ReadFull would escape, one allocation per message.
	hdr := (*bp)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Message{}, err
	}
	size := binary.LittleEndian.Uint32(hdr)
	if size < 4 || size > MaxMessageSize {
		return Message{}, fmt.Errorf("core: bad message size %d", size)
	}
	if cap(*bp) < int(size) {
		*bp = make([]byte, size)
	}
	body := (*bp)[:size]
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	return decodeBody(body)
}

// EncodeInterrupt renders an interrupt-socket notification (a 4-byte
// little-endian id, as read by the guest driver).
func EncodeInterrupt(id uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], id)
	return b[:]
}

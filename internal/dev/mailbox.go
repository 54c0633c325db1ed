package dev

import (
	"fmt"
	"sync"
)

// Mailbox register offsets.
const (
	MBSend  = 0x00 // WO: push a word to the peer, raising its interrupt
	MBRecv  = 0x04 // RO: pop a word from this side's queue
	MBAvail = 0x08 // RO: words waiting
	MBSize  = 0x0c
)

// mailboxSide is the per-endpoint state of a mailbox pair: the receive
// queue and its PIC line. Both sides share one mutex.
type mailboxSide struct {
	queue []uint32
	pic   *PIC
	line  int
}

// Mailbox is one endpoint of a bidirectional inter-processor mailbox —
// the kind of hardware block a multi-processor SoC uses for doorbells.
// Words written to MBSend appear in the peer's receive queue and assert
// the peer's PIC line. It is the one device two platforms share, so
// its queues are guarded by a mutex the pair holds in common. A send
// still asserts the peer's PIC, which belongs to the peer platform's
// owner: the two platforms of a pair run one at a time.
type Mailbox struct {
	mu   *sync.Mutex
	self *mailboxSide
	peer *mailboxSide
}

// NewMailboxPair creates the two endpoints of a mailbox connecting CPU A
// (picA/lineA) and CPU B (picB/lineB).
func NewMailboxPair(picA *PIC, lineA int, picB *PIC, lineB int) (*Mailbox, *Mailbox) {
	var mu sync.Mutex
	sa := &mailboxSide{pic: picA, line: lineA}
	sb := &mailboxSide{pic: picB, line: lineB}
	a := &Mailbox{mu: &mu, self: sa, peer: sb}
	b := &Mailbox{mu: &mu, self: sb, peer: sa}
	return a, b
}

// Name implements iss.Device.
func (m *Mailbox) Name() string { return "mailbox" }

// Size implements iss.Device.
func (m *Mailbox) Size() uint32 { return MBSize }

// Read implements iss.Device.
func (m *Mailbox) Read(off uint32, size int) (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch off {
	case MBRecv:
		if len(m.self.queue) == 0 {
			return 0, nil
		}
		v := m.self.queue[0]
		m.self.queue = m.self.queue[1:]
		if len(m.self.queue) == 0 {
			m.self.pic.Deassert(m.self.line)
		}
		return v, nil
	case MBAvail:
		return uint32(len(m.self.queue)), nil
	default:
		return 0, fmt.Errorf("mailbox: read of unknown register %#x", off)
	}
}

// Write implements iss.Device.
func (m *Mailbox) Write(off uint32, size int, v uint32) error {
	switch off {
	case MBSend:
		m.mu.Lock()
		m.peer.queue = append(m.peer.queue, v)
		m.mu.Unlock()
		m.peer.pic.Assert(m.peer.line)
		return nil
	default:
		return fmt.Errorf("mailbox: write to unknown register %#x", off)
	}
}

package transport

import (
	"io"
	"sync"
)

// ringBufSize is the per-direction buffer capacity. Sized so a burst of
// co-simulation frames (messages are tens of bytes) never blocks the
// writer in practice; a full ring degrades to blocking, not to loss.
const ringBufSize = 64 << 10

// ringStartSize is the storage a ring direction starts with. It holds
// the largest frame a run writes (an RSP write of a full packet blob is
// just over 500 bytes), so a ring doubles its storage towards ringBufSize
// only when frames pile up behind a slow reader.
const ringStartSize = 1 << 10

// ringBuf is a bounded byte queue with blocking Read/Write — one
// direction of a ring endpoint pair. A mutex plus two condition
// variables keeps it simple and race-free; the win over sockets is
// skipping the syscall and protocol stack, not lock elision.
type ringBuf struct {
	mu       sync.Mutex
	notEmpty sync.Cond // data arrived, or the ring closed
	notFull  sync.Cond // space freed, or the ring closed
	buf      []byte    // storage, grown on demand up to limit
	limit    int       // capacity: a writer blocks while limit bytes are buffered
	r        int       // read index
	n        int       // bytes buffered
	closed   bool
}

// newRingBuf returns a ring holding up to limit bytes, with start bytes
// of storage allocated up front.
func newRingBuf(start, limit int) *ringBuf {
	rb := &ringBuf{buf: make([]byte, min(start, limit)), limit: limit}
	rb.notEmpty.L = &rb.mu
	rb.notFull.L = &rb.mu
	return rb
}

// grow doubles the storage until need bytes fit or it reaches the
// capacity, moving the buffered bytes to the front in order (they may
// wrap around the end of the old storage). Callers hold rb.mu.
func (rb *ringBuf) grow(need int) {
	size := len(rb.buf)
	for size < need && size < rb.limit {
		size *= 2
	}
	buf := make([]byte, min(size, rb.limit))
	first := copy(buf, rb.buf[rb.r:min(rb.r+rb.n, len(rb.buf))])
	copy(buf[first:], rb.buf[:rb.n-first])
	rb.buf, rb.r = buf, 0
}

// read blocks until data is available or the ring is closed; a closed
// ring drains its buffered bytes and then reports io.EOF.
func (rb *ringBuf) read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	for rb.n == 0 && !rb.closed {
		rb.notEmpty.Wait()
	}
	if rb.n == 0 {
		return 0, io.EOF
	}
	n := min(len(p), rb.n)
	// Up to two copies around the wrap point.
	first := min(n, len(rb.buf)-rb.r)
	copy(p, rb.buf[rb.r:rb.r+first])
	copy(p[first:], rb.buf[:n-first])
	rb.r = (rb.r + n) % len(rb.buf)
	rb.n -= n
	rb.notFull.Broadcast()
	return n, nil
}

// write blocks while the ring is full; writing to a closed ring fails
// with io.ErrClosedPipe (reporting how much was queued first).
func (rb *ringBuf) write(p []byte) (int, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	total := 0
	for len(p) > 0 {
		for rb.n == rb.limit && !rb.closed {
			rb.notFull.Wait()
		}
		if rb.closed {
			return total, io.ErrClosedPipe
		}
		if need := rb.n + len(p); need > len(rb.buf) && len(rb.buf) < rb.limit {
			rb.grow(need)
		}
		n := min(len(p), len(rb.buf)-rb.n)
		w := (rb.r + rb.n) % len(rb.buf)
		first := min(n, len(rb.buf)-w)
		copy(rb.buf[w:], p[:first])
		copy(rb.buf, p[first:n])
		rb.n += n
		total += n
		p = p[n:]
		rb.notEmpty.Broadcast()
	}
	return total, nil
}

// close marks the ring closed and wakes every blocked reader and
// writer. Idempotent.
func (rb *ringBuf) close() {
	rb.mu.Lock()
	rb.closed = true
	rb.notEmpty.Broadcast()
	rb.notFull.Broadcast()
	rb.mu.Unlock()
}

// ringEndpoint is one end of a ring pair: it reads from one direction's
// ring and writes into the other's.
type ringEndpoint struct {
	rd *ringBuf
	wr *ringBuf
}

func (e *ringEndpoint) Read(p []byte) (int, error)  { return e.rd.read(p) }
func (e *ringEndpoint) Write(p []byte) (int, error) { return e.wr.write(p) }

// Close closes both directions: this side's own blocked Read returns,
// the peer's pending reads drain then see io.EOF, and the peer's
// writes fail — the property the kernel's teardown finalizers rely on
// to terminate reader goroutines deterministically.
func (e *ringEndpoint) Close() error {
	e.rd.close()
	e.wr.close()
	return nil
}

// ringTransport is the in-process ring-buffer backend.
type ringTransport struct{}

func (ringTransport) Name() string { return "ring" }

func (ringTransport) Pair() (host, guest Endpoint, err error) {
	toGuest := newRingBuf(ringStartSize, ringBufSize)
	toHost := newRingBuf(ringStartSize, ringBufSize)
	host = &ringEndpoint{rd: toHost, wr: toGuest}
	guest = &ringEndpoint{rd: toGuest, wr: toHost}
	return host, guest, nil
}

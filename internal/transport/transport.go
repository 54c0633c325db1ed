// Package transport is the pluggable interconnect between the two
// simulator processes of the paper's co-simulation schemes: the
// SystemC-side kernel and the software simulator (GDB stub or RTOS
// guest). The paper fixes this link as host-OS sockets; here it is a
// first-class abstraction with three socket-free and socket-backed
// backends, so the same scheme code runs over loopback TCP, Unix domain
// sockets, or an in-process ring buffer that skips the kernel socket
// layer entirely for same-process co-simulation.
//
// Teardown ownership rules (the contract every backend honours):
//
//   - Every endpoint a Transport hands out implements io.Closer.
//   - Close unblocks the endpoint's own pending Read and the peer's:
//     a reader goroutine blocked on either end terminates once either
//     end is closed.
//   - After Close, the peer's reads drain buffered data and then see
//     io.EOF; its writes fail.
//   - Close is idempotent.
//
// Consumers therefore register teardown via the io.Closer interface —
// never via a net.Conn type assertion, which would silently skip
// non-socket backends and leak their reader goroutines (the cosimvet
// transportclose rule enforces this outside this package).
package transport

import (
	"fmt"
	"io"
	"strings"
)

// Endpoint is one end of a co-simulation channel. It is an alias, not a
// named interface, so net.Conn values satisfy it directly and endpoints
// flow into io.ReadWriter parameters without conversion.
type Endpoint = io.ReadWriteCloser

// Listener accepts kernel-side endpoints — the listen half of the
// split dial/listen attachment used when the two simulators do not
// share a constructor (a co-simulation server, an external guest).
type Listener interface {
	// Accept blocks until a peer dials and returns the accepted
	// endpoint. After Close it returns an error.
	Accept() (Endpoint, error)
	// Addr is the dialable address of this listener, in the backend's
	// own notation ("127.0.0.1:43713", "/tmp/x/t.sock", "ring:7").
	Addr() string
	// Close releases the listener. Errors are meaningful (a Unix socket
	// file that cannot be removed, for example) and must be propagated,
	// not discarded.
	Close() error
}

// Transport selects how the two simulators are connected and
// constructs the connection — either as a pre-wired pair (both ends in
// one process, the harness's shape) or through dial/listen.
type Transport interface {
	// Name is the backend's flag-surface name ("tcp", "unix", "ring",
	// "pipe").
	Name() string
	// Pair returns a connected endpoint pair: host is the kernel side,
	// guest the simulator side.
	Pair() (host, guest Endpoint, err error)
	// Listen opens a listener at a backend-chosen address.
	Listen() (Listener, error)
	// Dial connects to a listener's Addr.
	Dial(addr string) (Endpoint, error)
}

// Flusher is optionally implemented by endpoints that batch frames
// (Buffered, or any custom buffering channel). Schemes call Flush at
// batch boundaries — end of a cycle hook, before a conservative wait —
// so a buffered reply is never left unsent past a point the guest may
// block on it.
type Flusher interface {
	Flush() error
}

// Flush flushes w if it batches writes, and is a no-op otherwise.
func Flush(w io.Writer) error {
	if f, ok := w.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// BatchRecorder is optionally implemented by endpoints that account for
// writes packing several protocol messages. No protocol writer in this
// module packs messages any more, so nothing reports here; the hook is
// kept only because endpoint wrappers in the benchmark module still
// forward it, and goes when they stop.
type BatchRecorder interface {
	RecordBatch(msgs int)
}

// RecordBatch reports a write of msgs messages on w, if w accounts for
// batches; otherwise it is a no-op.
func RecordBatch(w io.Writer, msgs int) {
	if r, ok := w.(BatchRecorder); ok {
		r.RecordBatch(msgs)
	}
}

// The built-in backends. All are stateless handles; the ring backend's
// listener registry is process-global state behind the handle.
var (
	// TCP connects over loopback TCP — the paper's configuration, with
	// genuine syscall and protocol-stack costs.
	TCP Transport = tcpTransport{}
	// Unix connects over a Unix domain socket: host-OS IPC without the
	// TCP/IP stack.
	Unix Transport = unixTransport{}
	// Ring connects through in-process ring buffers: no sockets, no
	// syscalls — the same-process fast path.
	Ring Transport = ringTransport{}
	// Pipe connects through net.Pipe: synchronous, unbuffered
	// in-process channels (every write rendezvouses with a read). Kept
	// for deterministic tests; Ring is the buffered in-process path.
	Pipe Transport = pipeTransport{}
)

// All lists the built-in backends in sweep order.
func All() []Transport { return []Transport{TCP, Unix, Ring, Pipe} }

// Parse resolves a backend by (case-insensitive) flag name.
func Parse(name string) (Transport, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tcp":
		return TCP, nil
	case "unix":
		return Unix, nil
	case "ring":
		return Ring, nil
	case "pipe":
		return Pipe, nil
	}
	return nil, fmt.Errorf("transport: unknown transport %q (want tcp, unix, ring or pipe)", name)
}

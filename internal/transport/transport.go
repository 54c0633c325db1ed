// Package transport is the pluggable interconnect between the two
// simulator processes of the paper's co-simulation schemes: the
// SystemC-side kernel and the software simulator (GDB stub or RTOS
// guest). The paper fixes this link as host-OS sockets; here it is a
// first-class abstraction, so the same scheme code runs over loopback
// TCP, over an in-process ring buffer that skips the kernel socket layer
// entirely, or over a synchronous net.Pipe.
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
// never via a net.Conn type assertion, which skips the ring backend's
// endpoints, so a read blocked on one never ends. The ring cases of the
// teardown and stop-timeout tests hang on such an assertion.
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

// Transport selects how the two simulators are connected. The link is
// opened once at start-up, with both ends in one process, so a backend
// is a name and a factory for connected pairs.
type Transport interface {
	// Name is the backend's flag-surface name ("tcp", "ring", "pipe").
	Name() string
	// Pair returns a connected endpoint pair: host is the kernel side,
	// guest the simulator side.
	Pair() (host, guest Endpoint, err error)
}

// Flusher is optionally implemented by endpoints that buffer writes.
// Every endpoint this module builds delivers on Write, and nothing in
// this module calls Flush; the interface and Flush are kept only
// because endpoint wrappers in the benchmark module still compile
// against them, and go when they stop.
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
// module packs messages, and nothing in this module calls RecordBatch;
// the hook is kept only because endpoint wrappers in the benchmark
// module still forward it, and goes when they stop.
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

// The built-in backends. All are stateless handles.
var (
	// TCP connects over loopback TCP — the paper's configuration, with
	// genuine syscall and protocol-stack costs.
	TCP Transport = tcpTransport{}
	// Ring connects through in-process ring buffers: no sockets, no
	// syscalls — the same-process fast path.
	Ring Transport = ringTransport{}
	// Pipe connects through net.Pipe: synchronous, unbuffered
	// in-process channels (every write rendezvouses with a read). Kept
	// for deterministic tests; Ring is the buffered in-process path.
	Pipe Transport = pipeTransport{}
)

// All lists the built-in backends in sweep order.
func All() []Transport { return []Transport{TCP, Ring, Pipe} }

// Parse resolves a backend by (case-insensitive) flag name.
func Parse(name string) (Transport, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "tcp":
		return TCP, nil
	case "ring":
		return Ring, nil
	case "pipe":
		return Pipe, nil
	}
	return nil, fmt.Errorf("transport: unknown transport %q (want tcp, ring or pipe)", name)
}

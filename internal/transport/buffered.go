package transport

import "bufio"

// Buffered wraps ep's write side in a bufio.Writer so frame-per-message
// protocols can batch several frames per flush — the optional batched
// frame I/O of the transport layer. The wrapper implements Flusher;
// consumers that batch (the Driver-Kernel scheme) flush at their hook
// boundaries, so a buffered reply is never left unsent past a point the
// guest may block on it. Close flushes before closing ep.
func Buffered(ep Endpoint, size int) Endpoint {
	if size <= 0 {
		size = 4096
	}
	return &bufferedEndpoint{ep: ep, bw: bufio.NewWriterSize(ep, size)}
}

type bufferedEndpoint struct {
	ep Endpoint
	bw *bufio.Writer
}

func (b *bufferedEndpoint) Read(p []byte) (int, error)  { return b.ep.Read(p) }
func (b *bufferedEndpoint) Write(p []byte) (int, error) { return b.bw.Write(p) }
func (b *bufferedEndpoint) Flush() error                { return b.bw.Flush() }

func (b *bufferedEndpoint) Close() error {
	flushErr := b.bw.Flush()
	closeErr := b.ep.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

package transport

import "sync"

// WriteAhead returns ep with writes that return as soon as their bytes
// are queued, if tr's writes wait for a reader (pipe): a goroutine,
// started when a write finds it idle and gone when the queue is empty,
// writes the bytes through in order. Otherwise it returns ep as it is:
// tcp and ring buffer writes themselves. A side that writes and then
// reads its peer's end on its own goroutine needs one or the other.
func WriteAhead(tr Transport, ep Endpoint) Endpoint {
	if tr.Name() != Pipe.Name() {
		return ep
	}
	return &writeAhead{Endpoint: ep}
}

type writeAhead struct {
	Endpoint
	mu      sync.Mutex
	queue   []byte // guarded by mu
	spare   []byte // the drained buffer, reused; guarded by mu
	writing bool   // a drain goroutine runs; guarded by mu
	err     error  // the first write error; guarded by mu
}

func (w *writeAhead) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.queue = append(w.queue, p...)
	if !w.writing {
		w.writing = true
		go w.drain()
	}
	return len(p), nil
}

// drain writes the queue through until it is empty or a write fails.
// Closing either end fails a write in flight, so no drain outlives the
// channel.
func (w *writeAhead) drain() {
	for {
		w.mu.Lock()
		if len(w.queue) == 0 || w.err != nil {
			w.writing = false
			w.mu.Unlock()
			return
		}
		buf := w.queue
		w.queue, w.spare = w.spare[:0], nil
		w.mu.Unlock()
		_, err := w.Endpoint.Write(buf)
		w.mu.Lock()
		w.spare = buf[:0]
		if err != nil && w.err == nil {
			w.err = err
		}
		w.mu.Unlock()
	}
}

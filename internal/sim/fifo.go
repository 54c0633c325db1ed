package sim

// Fifo is a bounded FIFO channel equivalent to sc_fifo[T], with the
// non-blocking sc_fifo interface only: a writer whose TryWrite fails, or
// a reader whose TryRead finds nothing, returns and runs again on
// DataRead or DataWritten.
//
// Like sc_fifo, reads and writes performed in the same delta cycle are
// decoupled: items written become readable immediately (sc_fifo's
// num_available is conservative; we use the simpler immediate-visibility
// model, which is what a reader sensitive to data_written_event
// observes).
type Fifo[T any] struct {
	name     string
	buf      []T // ring storage, grown on demand up to capacity
	head     int // index of the oldest item in buf
	n        int // number of items stored
	capacity int

	dataWritten *Event
	dataRead    *Event

	totalWritten uint64
	totalRead    uint64
	dropped      uint64
}

// NewFifo creates a FIFO with the given capacity (must be >= 1).
func NewFifo[T any](k *Kernel, name string, capacity int) *Fifo[T] {
	if capacity < 1 {
		panic("sim: fifo capacity must be >= 1")
	}
	return &Fifo[T]{
		name: name, capacity: capacity,
		dataWritten: k.NewEvent(name + ".data_written"),
		dataRead:    k.NewEvent(name + ".data_read"),
	}
}

// Name returns the FIFO name.
func (f *Fifo[T]) Name() string { return f.name }

// Len returns the number of items currently stored.
func (f *Fifo[T]) Len() int { return f.n }

// Cap returns the FIFO capacity.
func (f *Fifo[T]) Cap() int { return f.capacity }

// Free returns the remaining space.
func (f *Fifo[T]) Free() int { return f.capacity - f.n }

// DataWritten returns the event notified (delta) after each write.
func (f *Fifo[T]) DataWritten() *Event { return f.dataWritten }

// DataRead returns the event notified (delta) after each read.
func (f *Fifo[T]) DataRead() *Event { return f.dataRead }

// TotalWritten returns the number of successful writes.
func (f *Fifo[T]) TotalWritten() uint64 { return f.totalWritten }

// TotalRead returns the number of successful reads.
func (f *Fifo[T]) TotalRead() uint64 { return f.totalRead }

// Dropped returns the number of TryWrite calls rejected because the FIFO
// was full (used by the router model to count lost packets).
func (f *Fifo[T]) Dropped() uint64 { return f.dropped }

// TryWrite appends v if there is space and reports success. On failure
// the drop counter is incremented.
func (f *Fifo[T]) TryWrite(v T) bool {
	if f.n >= f.capacity {
		f.dropped++
		return false
	}
	if f.n == len(f.buf) {
		f.grow()
	}
	f.buf[(f.head+f.n)%len(f.buf)] = v
	f.n++
	f.totalWritten++
	f.dataWritten.NotifyDelta()
	return true
}

// TryRead pops the oldest item if available.
func (f *Fifo[T]) TryRead() (T, bool) {
	var zero T
	if f.n == 0 {
		return zero, false
	}
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) % len(f.buf)
	f.n--
	f.totalRead++
	f.dataRead.NotifyDelta()
	return v, true
}

// Peek returns the oldest item without removing it.
func (f *Fifo[T]) Peek() (T, bool) {
	var zero T
	if f.n == 0 {
		return zero, false
	}
	return f.buf[f.head], true
}

// At returns the item i places behind the oldest (At(0) is Peek's),
// without removing it; i must lie in [0, Len()).
func (f *Fifo[T]) At(i int) T {
	if i < 0 || i >= f.n {
		panic("sim: fifo index out of range")
	}
	return f.buf[(f.head+i)%len(f.buf)]
}

// grow enlarges the full ring, keeping item order, so a steady
// write/read pattern reuses one buffer instead of reallocating.
func (f *Fifo[T]) grow() {
	buf := make([]T, min(f.capacity, max(2*len(f.buf), 4)))
	copy(buf, f.buf[f.head:])
	copy(buf[len(f.buf)-f.head:], f.buf[:f.head])
	f.buf, f.head = buf, 0
}

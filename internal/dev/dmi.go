package dev

// DMI-style direct memory windows (cf. Villa et al., "Fast Dynamic
// Memory Integration in Co-Simulation Frameworks for MPSoC"): the
// kernel grants the guest's driver a revocable window into the
// side-effect-free backing memory of a bound port, so a guest load or
// store in the granted range becomes a local memory operation — no
// codec, no transport write. Side-effectful registers
// (PIC, Timer, console control) are never windowed; accesses to them,
// and any access a window cannot serve, fall back transparently to the
// READ/WRITE message protocol.
//
// A Window is the unit of grant. The kernel side mirrors port state
// into it (Update) and reconciles guest activity out of it (TakeStaged,
// TakeReadAck) between guest runs, so granted-window accesses still
// couple to simulated time; the guest side serves accesses from it
// (TryRead, TryWrite). Revoke invalidates the window permanently —
// the kernel re-grants a fresh window after reconfiguration. Both
// sides run on the goroutine that owns the platform the window is
// granted to (see the package doc), so a window takes no lock.

// Staged-write bounds: a window stops accepting guest stores once this
// many writes or bytes are pending reconciliation, forcing the
// overflow onto the message path instead of growing without limit.
const (
	maxStagedWrites = 64
	maxStagedBytes  = 1 << 16
)

// StagedWrite is one guest store captured by a write window, waiting
// for the kernel to reconcile it with simulation time.
type StagedWrite struct {
	Cycles uint32
	Data   []byte
}

// Window is one revocable direct-memory grant over a single bound port.
// The zero value is unusable; construct with NewWindow.
type Window struct {
	port  string
	valid bool

	// Read side: the kernel mirrors the backing port's bytes and write
	// generation here; the guest consumes generations. seq > readSeq
	// means an unconsumed generation is present.
	data       []byte
	seq        uint64
	readSeq    uint64
	readCycles uint32
	readAck    bool

	// Write side: guest stores staged until the kernel reconciles them.
	staged      []StagedWrite
	stagedBytes int

	hits, misses, revocations uint64
}

// NewWindow creates a valid window over port.
func NewWindow(port string) *Window {
	return &Window{port: port, valid: true}
}

// Port returns the bound port name the window was granted over.
func (w *Window) Port() string { return w.port }

// TryRead serves a guest READ of the windowed port at the guest cycle
// counter cycles. It succeeds only when the window is valid and holds a
// generation the guest has not consumed yet — a stale re-read falls
// back to the message path, which always returns the current value.
// On success sink is called with the mirrored bytes, which it must
// copy. Returns whether the read was served.
func (w *Window) TryRead(cycles uint32, sink func(data []byte)) bool {
	if !w.valid || w.seq <= w.readSeq {
		w.misses++
		return false
	}
	sink(w.data)
	w.readSeq = w.seq
	w.readCycles = cycles
	w.readAck = true
	w.hits++
	return true
}

// TryWrite stages a guest WRITE of the windowed port. It fails — and
// the caller falls back to the message path — when the window is
// revoked or the staged-write bounds are reached. The data bytes are copied.
func (w *Window) TryWrite(cycles uint32, data []byte) bool {
	if !w.valid || len(w.staged) >= maxStagedWrites || w.stagedBytes+len(data) > maxStagedBytes {
		w.misses++
		return false
	}
	// Reuse the slot's buffer from an earlier staged write: the kernel
	// has handled that write's frame before the guest runs again.
	n := len(w.staged)
	if n < cap(w.staged) {
		w.staged = w.staged[:n+1]
	} else {
		w.staged = append(w.staged, StagedWrite{})
	}
	sw := &w.staged[n]
	sw.Cycles, sw.Data = cycles, append(sw.Data[:0], data...)
	w.stagedBytes += len(data)
	w.hits++
	return true
}

// Update mirrors the backing port's current bytes and write generation
// into the window (kernel side). It is a no-op on a revoked window.
func (w *Window) Update(data []byte, seq uint64) {
	if !w.valid {
		return
	}
	w.data = append(w.data[:0], data...)
	w.seq = seq
}

// SyncConsumed records that the message protocol already delivered
// generation seq to the guest (a fallback READ was answered by the
// kernel), so the window will not re-serve it as fresh.
func (w *Window) SyncConsumed(seq uint64) {
	if seq > w.readSeq {
		w.readSeq = seq
	}
}

// TakeStaged moves all staged guest writes out of the window, appending
// them to dst (kernel side, called at reconcile points). Their Data is
// valid until the guest's next store through the window, so the kernel
// handles them before it runs the guest again.
func (w *Window) TakeStaged(dst []StagedWrite) []StagedWrite {
	dst = append(dst, w.staged...)
	w.staged = w.staged[:0]
	w.stagedBytes = 0
	return dst
}

// TakeReadAck reports and clears the pending read acknowledgement: the
// generation the guest last consumed through the window and the guest
// cycle counter at that access, for reconciliation in simulated time.
func (w *Window) TakeReadAck() (seq uint64, cycles uint32, ok bool) {
	if !w.readAck {
		return 0, 0, false
	}
	w.readAck = false
	return w.readSeq, w.readCycles, true
}

// HasPending reports whether guest activity (a consumed read
// generation or staged writes) awaits kernel reconciliation.
func (w *Window) HasPending() bool { return w.readAck || len(w.staged) > 0 }

// Revoke invalidates the window permanently. Guest accesses after
// revocation miss and fall back to the message path; staged writes
// survive for one final reconciliation. Revoking twice counts once.
func (w *Window) Revoke() {
	if w.valid {
		w.valid = false
		w.revocations++
	}
}

// Valid reports whether the window is still granted.
func (w *Window) Valid() bool { return w.valid }

// Counters returns the window's cumulative hit/miss/revocation counts.
func (w *Window) Counters() (hits, misses, revocations uint64) {
	return w.hits, w.misses, w.revocations
}

// DMIGranter is the window grant/revoke surface a guest-side device
// exposes to the kernel. CosimDev implements it for protocol ports;
// Platform forwards to its bridge device.
type DMIGranter interface {
	// GrantDMIWindow makes the device serve guest accesses to the named
	// port from w when possible. Granting a port again replaces (and
	// revokes) the previous window.
	GrantDMIWindow(port string, w *Window)
	// RevokeDMIWindows revokes and forgets every granted window.
	RevokeDMIWindows()
}

package sim

// pendingKind describes the outstanding notification on an Event.
type pendingKind uint8

const (
	pendingNone pendingKind = iota
	pendingDelta
	pendingTimed
)

// Event is a synchronization primitive equivalent to sc_event. Processes
// become runnable when an event they are statically sensitive to is
// triggered.
//
// An Event carries at most one outstanding notification. Following
// SystemC semantics, an immediate notification always takes effect; a
// delta notification overrides a pending timed one; and a timed
// notification overrides a pending timed notification only if it is
// scheduled earlier.
type Event struct {
	k    *Kernel
	name string

	static []*Proc // statically sensitive processes

	pending pendingKind
	due     Time // valid when pending == pendingTimed
	heapIdx int  // index in the kernel timed queue, -1 if absent
}

// NewEvent creates a named event owned by the kernel.
func (k *Kernel) NewEvent(name string) *Event {
	return &Event{k: k, name: name, heapIdx: -1}
}

// Name returns the event's name.
func (e *Event) Name() string { return e.name }

// Notify triggers the event immediately: every sensitive process becomes
// runnable in the current evaluation phase. Any pending delayed
// notification is cancelled.
func (e *Event) Notify() {
	e.Cancel()
	e.trigger()
}

// NotifyDelta schedules the event to trigger in the next delta cycle of
// the current simulation time.
func (e *Event) NotifyDelta() {
	switch e.pending {
	case pendingDelta:
		return
	case pendingTimed:
		e.k.timed.remove(e)
	}
	e.pending = pendingDelta
	e.k.deltas = append(e.k.deltas, e)
}

// NotifyAfter schedules the event to trigger after delay d. A delay of
// zero is equivalent to NotifyDelta.
func (e *Event) NotifyAfter(d Time) { e.NotifyAt(e.k.now + d) }

// NotifyAt schedules the event to trigger at absolute time t. A time
// not after Now is a delta notification, like SystemC's
// notify(SC_ZERO_TIME), so no time point is visited twice. Per SystemC
// override rules, an already-pending delta notification wins, and an
// already-pending earlier timed notification wins.
func (e *Event) NotifyAt(t Time) {
	if t <= e.k.now {
		e.NotifyDelta()
		return
	}
	switch e.pending {
	case pendingDelta:
		return
	case pendingTimed:
		if e.due <= t {
			return
		}
		e.k.timed.remove(e)
	}
	e.pending = pendingTimed
	e.due = t
	e.k.timed.push(e)
}

// Cancel removes any pending delayed notification.
func (e *Event) Cancel() {
	switch e.pending {
	case pendingTimed:
		e.k.timed.remove(e)
	case pendingDelta:
		// Leave the stale entry in the delta list; fire() checks pending.
	}
	e.pending = pendingNone
}

// Pending reports whether a delta or timed notification is outstanding.
func (e *Event) Pending() bool { return e.pending != pendingNone }

// fire delivers a previously scheduled (delta or timed) notification.
func (e *Event) fire() {
	if e.pending == pendingNone {
		return // cancelled while queued
	}
	e.pending = pendingNone
	e.trigger()
}

// trigger makes all sensitive processes runnable.
func (e *Event) trigger() {
	for _, p := range e.static {
		e.k.makeRunnable(p)
	}
}

// timedQueue is a binary min-heap of events ordered by due time. Ties
// are broken by insertion order to keep scheduling deterministic.
type timedQueue struct {
	items []timedItem
	seq   uint64
}

type timedItem struct {
	e   *Event
	seq uint64
}

func (q *timedQueue) Len() int { return len(q.items) }

func (q *timedQueue) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.e.due != b.e.due {
		return a.e.due < b.e.due
	}
	return a.seq < b.seq
}

func (q *timedQueue) swap(i, j int) {
	q.items[i], q.items[j] = q.items[j], q.items[i]
	q.items[i].e.heapIdx = i
	q.items[j].e.heapIdx = j
}

func (q *timedQueue) push(e *Event) {
	q.seq++
	q.items = append(q.items, timedItem{e, q.seq})
	e.heapIdx = len(q.items) - 1
	q.up(e.heapIdx)
}

func (q *timedQueue) peek() *Event {
	if len(q.items) == 0 {
		return nil
	}
	return q.items[0].e
}

func (q *timedQueue) pop() *Event {
	e := q.items[0].e
	q.removeAt(0)
	return e
}

func (q *timedQueue) remove(e *Event) {
	if e.heapIdx >= 0 {
		q.removeAt(e.heapIdx)
	}
}

func (q *timedQueue) removeAt(i int) {
	n := len(q.items) - 1
	q.items[i].e.heapIdx = -1
	if i != n {
		q.items[i] = q.items[n]
		q.items[i].e.heapIdx = i
	}
	q.items = q.items[:n]
	if i < n {
		q.down(i)
		q.up(i)
	}
}

func (q *timedQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *timedQueue) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

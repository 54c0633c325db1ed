package sim

// callAtItem is one deferred call.
type callAtItem struct {
	t   Time
	seq uint64
	fn  func()
}

// callAtHeap is a binary min-heap of deferred calls ordered by
// (t, seq), so calls due at the same time run in CallAt order.
type callAtHeap []callAtItem

func (h callAtHeap) less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}

func (h *callAtHeap) push(it callAtItem) {
	*h = append(*h, it)
	q := *h
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *callAtHeap) pop() callAtItem {
	q := *h
	it := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = callAtItem{}
	q = q[:n]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	*h = q
	return it
}

// callAtDispatcher runs deferred calls; created lazily by CallAt.
type callAtDispatcher struct {
	k     *Kernel
	ev    *Event
	queue callAtHeap
	seq   uint64
}

// ensureCallAt lazily creates the dispatcher (and its method process).
func (k *Kernel) ensureCallAt() *callAtDispatcher {
	if k.callAt == nil {
		d := &callAtDispatcher{k: k, ev: k.NewEvent("kernel.call_at")}
		k.callAt = d
		newProc("kernel.call_at_dispatch", d.dispatch, []*Event{d.ev})
	}
	return k.callAt
}

// CallAt schedules fn to run (as a one-shot simulation activity) at
// absolute time t; times not after Now run in the next delta cycle. It
// is the mechanism co-simulation bridges use to deliver ISS data at the
// simulated time implied by consumed CPU cycles.
func (k *Kernel) CallAt(t Time, fn func()) {
	d := k.ensureCallAt()
	d.seq++
	d.queue.push(callAtItem{t: t, seq: d.seq, fn: fn})
	d.ev.NotifyAt(t)
}

// CallAfter schedules fn after a relative delay.
func (k *Kernel) CallAfter(d Time, fn func()) { k.CallAt(k.now+d, fn) }

// dispatch runs every due call and re-arms for the next one.
func (d *callAtDispatcher) dispatch() {
	for len(d.queue) > 0 && d.queue[0].t <= d.k.now {
		d.queue.pop().fn()
	}
	if len(d.queue) > 0 {
		d.ev.NotifyAt(d.queue[0].t)
	}
}

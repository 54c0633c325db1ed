package sim

import "container/heap"

// callAtItem is one deferred call.
type callAtItem struct {
	t   Time
	seq uint64
	fn  func()
}

type callAtHeap []callAtItem

func (h callAtHeap) Len() int { return len(h) }
func (h callAtHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h callAtHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *callAtHeap) Push(x any)   { *h = append(*h, x.(callAtItem)) }
func (h *callAtHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

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
		p := &Proc{k: k, name: "kernel.call_at_dispatch", kind: methodProc, fn: d.dispatch}
		d.ev.addStatic(p)
		p.static = append(p.static, d.ev)
		k.procs = append(k.procs, p)
	}
	return k.callAt
}

// CallAt schedules fn to run (as a one-shot simulation activity) at
// absolute time t; times in the past run in the next delta cycle. It is
// the mechanism co-simulation bridges use to deliver ISS data at the
// simulated time implied by consumed CPU cycles — under temporal
// decoupling these are exactly the batched time-advance notices a
// quantum of guest progress produces.
func (k *Kernel) CallAt(t Time, fn func()) {
	d := k.ensureCallAt()
	d.seq++
	heap.Push(&d.queue, callAtItem{t: t, seq: d.seq, fn: fn})
	if t <= k.now {
		d.ev.NotifyDelta()
	} else {
		d.ev.NotifyAt(t)
	}
}

// CallAfter schedules fn after a relative delay.
func (k *Kernel) CallAfter(d Time, fn func()) { k.CallAt(k.now+d, fn) }

// dispatch runs every due call and re-arms for the next one.
func (d *callAtDispatcher) dispatch() {
	for d.queue.Len() > 0 && d.queue[0].t <= d.k.now {
		it := heap.Pop(&d.queue).(callAtItem)
		it.fn()
	}
	if d.queue.Len() > 0 {
		d.ev.NotifyAt(d.queue[0].t)
	}
}

package transport

import (
	"sync/atomic"
	"time"
)

// A Watchdog bounds blocking reads on a channel without reading the
// clock per read. Arm numbers a wait and, if no tick is scheduled,
// records the wait as seen and schedules a tick a timeout later; a
// wait still in progress at the tick that follows its being seen has
// lasted at least the timeout, and the watchdog ends it by calling
// expire, which must make the blocked read fail (closing the channel
// does). A tick that finds no wait since the last one schedules no
// further tick, so an idle watchdog holds no timer, and the first wait
// after idling is ended one timeout after it began. A zero timeout
// disables it. Arm and Disarm belong to the one goroutine that reads.
type Watchdog struct {
	timeout time.Duration
	expire  func()

	waits   atomic.Uint64 // odd while a wait is in progress
	armed   uint64        // waits during the current wait, 0 if none
	ticking atomic.Bool   // a tick is scheduled
	seen    uint64        // waits at the last tick, the tick's own
}

// NewWatchdog returns a watchdog that calls expire to end a wait that
// lasted timeout (at most twice it).
func NewWatchdog(timeout time.Duration, expire func()) *Watchdog {
	return &Watchdog{timeout: timeout, expire: expire}
}

// Arm starts a bounded wait.
func (w *Watchdog) Arm() {
	if w.timeout <= 0 {
		return
	}
	w.armed = w.waits.Add(1)
	if !w.ticking.Swap(true) {
		// No tick runs: the last one stored ticking=false after its
		// last write to seen.
		w.seen = w.armed
		time.AfterFunc(w.timeout, w.tick)
	}
}

// Disarm ends the wait Arm started and reports whether the watchdog
// ended it first: then the channel is gone, whatever the read returned.
func (w *Watchdog) Disarm() (expired bool) {
	n := w.armed
	if n == 0 {
		return false
	}
	w.armed = 0
	return !w.waits.CompareAndSwap(n, n+1)
}

func (w *Watchdog) tick() {
	n := w.waits.Load()
	last := w.seen
	w.seen = n
	switch {
	case n%2 == 1 && n == last:
		if w.waits.CompareAndSwap(n, n+1) {
			w.expire()
			return
		}
	case n == last:
		w.ticking.Store(false)
		// An Arm between the load and the store found it still ticking.
		if w.waits.Load() == n || !w.ticking.CompareAndSwap(false, true) {
			return
		}
	}
	time.AfterFunc(w.timeout, w.tick)
}

package transport

import (
	"math"
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
// disables it. Arm, Disarm and Stop belong to the one goroutine that
// reads.
type Watchdog struct {
	timeout time.Duration
	expire  func()

	waits   atomic.Uint64 // odd while a wait is in progress
	armed   uint64        // waits during the current wait, 0 if none
	ticking atomic.Bool   // a tick is scheduled
	seen    uint64        // waits at the last tick, the tick's own
	// timer runs tick; whoever set ticking resets it, so a tick
	// allocates no timer.
	timer   *time.Timer
	stopped atomic.Bool
}

// NewWatchdog returns a watchdog that calls expire to end a wait that
// lasted timeout (at most twice it).
func NewWatchdog(timeout time.Duration, expire func()) *Watchdog {
	w := &Watchdog{timeout: timeout, expire: expire}
	if timeout > 0 {
		// Made stopped: Arm starts it.
		w.timer = time.AfterFunc(math.MaxInt64, w.tick)
		w.timer.Stop()
	}
	return w
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
		w.schedule()
	}
}

// Stop ends the watchdog when its channel is done with: its timer is
// stopped, so a finished run leaves no tick behind, and no later tick
// calls expire (one already running may finish). A wait armed after
// Stop is not bounded.
func (w *Watchdog) Stop() {
	if w.timer == nil {
		return
	}
	w.stopped.Store(true)
	w.timer.Stop()
}

// schedule arms the next tick. Against a concurrent Stop: if Stop's
// store came first, the load sees it and stops the timer again; if
// not, Stop's own timer.Stop follows this reset.
func (w *Watchdog) schedule() {
	w.timer.Reset(w.timeout)
	if w.stopped.Load() {
		w.timer.Stop()
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
	if w.stopped.Load() {
		return
	}
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
	w.schedule()
}

package core

import (
	"cosim/internal/obs"
	"cosim/internal/sim"
)

// guestClock is one guest CPU's timeline, the rule both kernel schemes
// use to map its cycle count to simulated time. It is anchored at a
// (cycles, time) pair and counts 64-bit cycles.
type guestClock struct {
	k      *sim.Kernel
	period sim.Time // guest cycle length; zero is untimed: every stamp maps to now

	cycles uint64   // the anchor's guest cycle count
	at     sim.Time // the anchor's simulated time

	// clamped counts stamps that mapped behind now and were served at
	// now instead (cosim.clamped_stops): a guest ahead of its own
	// clock. Nil counts nothing.
	clamped *obs.Counter
}

// timeOf maps a guest cycle stamp to simulated time.
func (g *guestClock) timeOf(cycles uint64) sim.Time {
	if g.period == 0 {
		return g.k.Now()
	}
	return g.at.AddCycles(cycles-g.cycles, g.period)
}

// cyclesAt is the first cycle count whose time is at or after t: how
// far a guest runs to reach t. Driver-Kernel never re-anchors, so the
// two maps stay each other's inverse.
func (g *guestClock) cyclesAt(t sim.Time) uint64 {
	if !t.After(g.at) {
		return g.cycles
	}
	d := t.Sub(g.at)
	n := uint64(d / g.period)
	if d%g.period != 0 {
		n++
	}
	return g.cycles + n
}

// notBefore returns t, or now if t lies behind it, and counts the clamp.
func (g *guestClock) notBefore(t sim.Time) sim.Time {
	if now := g.k.Now(); t.Before(now) {
		g.clamped.Inc()
		return now
	}
	return t
}

// take anchors the timeline at a stamp the kernel has taken and returns
// the stamp's time. A stamp behind now anchors at now, never earlier.
func (g *guestClock) take(cycles uint64) sim.Time {
	t := g.timeOf(cycles)
	g.cycles, g.at = cycles, g.notBefore(t)
	return t
}

// idle re-anchors at now: the guest idled while it waited for the kernel.
func (g *guestClock) idle() { g.at = g.k.Now() }

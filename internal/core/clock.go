package core

import "cosim/internal/sim"

// guestClock is one guest CPU's timeline, the rule both kernel schemes
// use to map its cycle stamps to simulated time. It is anchored at a
// (cycles, time) pair and counts 64-bit cycles; Driver-Kernel widens
// its 32-bit wire stamps against the anchor. For Driver-Kernel's
// conservative wait it also records whether a request to the guest is
// outstanding, and since when.
type guestClock struct {
	k      *sim.Kernel
	period sim.Time // guest cycle length; zero is untimed: every stamp maps to now

	cycles uint64   // the anchor's guest cycle count
	at     sim.Time // the anchor's simulated time

	outstanding bool
	since       sim.Time
}

// timeOf maps a guest cycle stamp to simulated time.
func (g *guestClock) timeOf(cycles uint64) sim.Time {
	if g.period == 0 {
		return g.k.Now()
	}
	return g.at.AddCycles(cycles-g.cycles, g.period)
}

// widen maps a 32-bit wire stamp onto the anchor's 64-bit count: the
// stamp counts on from the anchor, modulo 2^32.
func (g *guestClock) widen(stamp uint32) uint64 {
	return g.cycles + uint64(stamp-uint32(g.cycles))
}

// take anchors the timeline at a stamp the kernel has taken and returns
// the stamp's time. A stamp behind now anchors at now, never earlier.
func (g *guestClock) take(cycles uint64) sim.Time {
	t := g.timeOf(cycles)
	g.cycles, g.at = cycles, max(t, g.k.Now())
	return t
}

// idle re-anchors at now: the guest idled while it waited for the kernel.
func (g *guestClock) idle() { g.at = g.k.Now() }

// request marks a request to the guest (a DATA reply, an interrupt)
// outstanding as of now; settle clears it: the guest answered, or the
// kernel gave up waiting. A non-zero bound makes the request's skew
// deadline, now+bound, a simulation cycle, so the begin-of-cycle drain
// runs there and finds the request overdue even when the model has no
// timed work then.
func (g *guestClock) request(bound sim.Time) {
	g.outstanding, g.since = true, g.k.Now()
	if bound != 0 {
		g.k.CallAt(g.since.Add(bound), skewDeadline)
	}
}
func (g *guestClock) settle() { g.outstanding = false }

// skewDeadline is the no-op a skew deadline is scheduled with: the
// visit is all it needs, and a shared function value keeps request from
// allocating.
func skewDeadline() {}

// overdue reports whether the kernel must wait for the guest before it
// passes now: a request has been outstanding for bound or longer.
func (g *guestClock) overdue(bound sim.Time) bool {
	return g.outstanding && !g.k.Now().Before(g.since.Add(bound))
}

package core

import (
	"cosim/internal/dev"
	"cosim/internal/obs"
	"cosim/internal/sim"
)

// DMI windows are Driver-Kernel's memory fast path, after Villa et al.'s
// dynamic memory integration; the paper's §4 scheme has none. The
// kernel grants a CPU's guest-side bridge a direct window per bound
// port, so guest accesses to side-effect-free port memory skip the
// codec and the transport. They do not skip the coupling in simulated
// time: a window access stops the guest as a sent frame does, and the
// kernel handles the access at the guest's time through the same
// per-CPU code as the messages it replaces (driverCPU.handleFrame).

// dmiWindows is one CPU's DMI seam: the windows granted over its bound
// ports. A nil *dmiWindows (DMI off) is valid: every method is a no-op.
type dmiWindows struct {
	c      *driverCPU
	grants []*dmiGrant

	staged []dev.StagedWrite // kernel-context scratch for staged stores
}

// dmiGrant couples one granted window to the kernel-side state it
// shadows: a read grant mirrors an iss_out binding (b != nil), a write
// grant stages stores for an iss_in port (in != nil). The last* fields
// remember the window counters already flushed into the obs registry,
// so a flush adds deltas instead of re-counting.
type dmiGrant struct {
	w  *dev.Window // granted over the guest-visible port name
	b  *binding    // read grant: the iss_out binding served by the window
	in *sim.IssIn  // write grant: the iss_in port staged stores deliver to

	lastHits, lastMisses, lastRevs uint64
}

// dmiCounters is one set of DMI counters: the aggregate
// ("driver.dmi_hits", ...) or one CPU's ("driver.cpu0.dmi_hits", ...).
// They are resolved whether or not DMI is on, so a run without windows
// reports zeros.
type dmiCounters struct {
	hits, misses, revocations *obs.Counter
}

// grantWindows hands the guest-side bridge one direct window per bound
// port: iss_out bindings get read windows kept coherent by the port's
// write hook, iss_in ports get write windows whose staged stores fold
// collects. Every bound port is a protocol data port —
// side-effect-free backing memory — so all of them are DMI-eligible;
// side-effectful device registers never reach this path because they
// are not ports.
// Grant order is sorted by port name: grants register windows with the
// guest bridge and set the reconcile order, so map-iteration order
// would leak into the journal.
func grantWindows(c *driverCPU, granter dev.DMIGranter) *dmiWindows {
	w := &dmiWindows{c: c}
	for _, name := range sortedKeys(c.outBindings) {
		b := c.outBindings[name]
		win := dev.NewWindow(name)
		win.Update(b.outPort.Bytes(), b.outPort.Writes())
		b.outPort.SetOnWrite(win.Update)
		granter.GrantDMIWindow(name, win)
		w.grants = append(w.grants, &dmiGrant{w: win, b: b})
	}
	for _, name := range sortedKeys(c.inPorts) {
		win := dev.NewWindow(name)
		granter.GrantDMIWindow(name, win)
		w.grants = append(w.grants, &dmiGrant{w: win, in: c.inPorts[name]})
	}
	return w
}

// fold queues the guest's window activity since the last call as
// frames: a consumed read generation (with the guest's stamp) and each
// staged store, as the WRITE message it replaces. Counter growth is
// flushed on the way. It walks the CPU's two or three grants.
func (w *dmiWindows) fold() {
	if w == nil {
		return
	}
	c := w.c
	for _, g := range w.grants {
		if g.b != nil {
			if seq, stamp, ok := g.w.TakeReadAck(); ok {
				c.frames = append(c.frames, frame{Message: Message{Cycles: stamp}, ack: g, seq: seq})
			}
		} else {
			w.staged = g.w.TakeStaged(w.staged[:0])
			for _, sw := range w.staged {
				c.frames = append(c.frames, frame{Message: Message{Type: MsgWrite, Cycles: sw.Cycles, Port: g.w.Port(), Data: sw.Data}})
			}
		}
		w.flushGrant(g)
	}
}

// consumed keeps b's read window from re-serving, as fresh, a
// generation the message path has delivered.
func (w *dmiWindows) consumed(b *binding) {
	if w == nil {
		return
	}
	for _, g := range w.grants {
		if g.b == b {
			g.w.SyncConsumed(b.consumed)
			return
		}
	}
}

// revoke revokes every window (the kernel-side explicit revocation
// rule): late guest accesses fall back to the message path, the port
// mirror hooks are removed, and the final counter growth, revocations
// included, is flushed.
func (w *dmiWindows) revoke() {
	if w == nil {
		return
	}
	for _, g := range w.grants {
		g.w.Revoke()
		if g.b != nil {
			g.b.outPort.SetOnWrite(nil)
		}
		w.flushGrant(g)
	}
}

// flush adds every window's counter growth since the last flush to the
// obs counters, so a snapshot never misses the tail.
func (w *dmiWindows) flush() {
	if w == nil {
		return
	}
	for _, g := range w.grants {
		w.flushGrant(g)
	}
}

// flushGrant adds g's counter growth since its last flush into the
// aggregate and per-CPU counters and the scheme's Stats.
func (w *dmiWindows) flushGrant(g *dmiGrant) {
	agg, cpu, st := &w.c.d.obs.dmi, &w.c.obs.dmi, &w.c.d.stats
	hits, misses, revs := g.w.Counters()
	if n := hits - g.lastHits; n > 0 {
		agg.hits.Add(n)
		cpu.hits.Add(n)
		st.DMIHits += n
	}
	if n := misses - g.lastMisses; n > 0 {
		agg.misses.Add(n)
		cpu.misses.Add(n)
		st.DMIMisses += n
	}
	if n := revs - g.lastRevs; n > 0 {
		agg.revocations.Add(n)
		cpu.revocations.Add(n)
	}
	g.lastHits, g.lastMisses, g.lastRevs = hits, misses, revs
}

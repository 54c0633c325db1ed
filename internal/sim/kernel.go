package sim

import (
	"errors"
	"fmt"

	"cosim/internal/obs"
)

// updatable is implemented by primitive channels (Signal, Fifo) whose
// writes are deferred to the update phase.
type updatable interface {
	update()
}

// CycleHook is invoked by the scheduler at simulation-cycle boundaries.
// This is the kernel extension point of the paper: the GDB-Kernel scheme
// polls the ISS pipe from a begin-of-cycle hook, and the Driver-Kernel
// scheme drains its data socket there and emits interrupt messages from
// an end-of-cycle hook.
type CycleHook func(k *Kernel)

// Kernel is the simulation kernel: it owns processes, events, channels
// and the scheduler. A Kernel is not safe for concurrent use; external
// goroutines (e.g. an ISS running in parallel) must communicate with the
// simulation through hooks and their own synchronized queues.
type Kernel struct {
	name string

	now         Time
	deltaCount  uint64 // total delta cycles executed
	cycleCount  uint64 // total timed simulation cycles executed
	activations uint64 // total process activations executed

	// hookNS, when set via SetObs, receives the wall-clock latency of
	// the begin-of-cycle hook chain — the per-cycle cost the paper's
	// kernel-embedded schemes add to the scheduler.
	hookNS *obs.Histogram

	runnable []*Proc
	updates  []updatable
	deltas   []*Event
	timed    timedQueue
	procs    []*Proc

	cycleHooks    []CycleHook
	endCycleHooks []CycleHook

	tracers []*Tracer

	// ISS port registry (paper §3.1/§4.2 kernel extensions).
	issIns  map[string]*IssIn
	issOuts map[string]*IssOut

	callAt *callAtDispatcher

	running     bool
	stopReq     bool
	killing     bool
	current     *Proc
	yield       chan struct{}
	threadPanic any

	finalizers []func()
}

// NewKernel creates an empty simulation kernel.
func NewKernel(name string) *Kernel {
	return &Kernel{name: name, yield: make(chan struct{})}
}

// Name returns the kernel's name.
func (k *Kernel) Name() string { return k.name }

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// DeltaCount returns the number of delta cycles executed so far.
func (k *Kernel) DeltaCount() uint64 { return k.deltaCount }

// CycleCount returns the number of timed simulation cycles executed so
// far (the number of distinct time points visited).
func (k *Kernel) CycleCount() uint64 { return k.cycleCount }

// Activations returns the number of process activations executed so far.
func (k *Kernel) Activations() uint64 { return k.activations }

// SetObs attaches an observability registry to the kernel: the
// begin-of-cycle hook chain is timed into the "sim.cycle_hook_ns"
// histogram. A nil registry detaches (and removes the per-cycle timing
// entirely).
func (k *Kernel) SetObs(r *obs.Registry) {
	k.hookNS = r.Histogram("sim.cycle_hook_ns")
}

// PublishObs copies the kernel's scheduler counters into the registry
// as gauges: sim.cycles, sim.delta_cycles, sim.activations. Call it
// after (or during) a run; safe on a nil registry.
func (k *Kernel) PublishObs(r *obs.Registry) {
	r.Gauge("sim.cycles").Set(k.cycleCount)
	r.Gauge("sim.delta_cycles").Set(k.deltaCount)
	r.Gauge("sim.activations").Set(k.activations)
}

// AddCycleHook registers a hook called at the beginning of every
// simulation cycle, before the first evaluation phase of that time
// point. This mirrors the paper's modified scheduling algorithm
// (Figures 3 and 5): "at the beginning of a simulation cycle, check ...".
func (k *Kernel) AddCycleHook(h CycleHook) { k.cycleHooks = append(k.cycleHooks, h) }

// AddEndCycleHook registers a hook called at the end of every simulation
// cycle, after event scheduling and before time advances — the point
// where the Driver-Kernel scheme notifies interrupts to the driver.
func (k *Kernel) AddEndCycleHook(h CycleHook) { k.endCycleHooks = append(k.endCycleHooks, h) }

// AddFinalizer registers a function run by Shutdown (in reverse
// registration order), used to close co-simulation transports.
func (k *Kernel) AddFinalizer(f func()) { k.finalizers = append(k.finalizers, f) }

// makeRunnable queues the process for the current evaluation phase.
func (k *Kernel) makeRunnable(p *Proc) {
	if p.runnable || p.finished {
		return
	}
	p.runnable = true
	k.runnable = append(k.runnable, p)
}

// requestUpdate queues a primitive channel for the update phase.
func (k *Kernel) requestUpdate(u updatable) {
	k.updates = append(k.updates, u)
}

// Stop requests the simulation to stop at the end of the current delta
// cycle (the equivalent of sc_stop).
func (k *Kernel) Stop() { k.stopReq = true }

// ErrDeadlock is returned by Run when, before the time limit, there are
// no runnable processes, no pending notifications, and no cycle hooks
// that could inject external activity.
var ErrDeadlock = errors.New("sim: no pending activity (deadlock)")

// Run advances the simulation until the given absolute time, until
// Stop is called, or until starvation. It returns nil when the time
// limit was reached or Stop was requested.
//
// Run may be called repeatedly to advance the simulation in slices.
func (k *Kernel) Run(until Time) error {
	k.running = true
	defer func() { k.running = false }()
	k.stopReq = false

	for {
		// ---- begin of simulation cycle (paper: Figure 3 / Figure 5) ----
		k.cycleCount++
		sp := k.hookNS.Start()
		for _, h := range k.cycleHooks {
			h(k)
		}
		sp.End()

		// Delta loop: evaluate / update / delta-notify until quiescent.
		for {
			if len(k.runnable) == 0 && len(k.updates) == 0 && len(k.deltas) == 0 {
				break
			}
			k.deltaCount++

			// Evaluation phase. Immediate notifications may append to
			// k.runnable while we iterate; process until drained.
			for len(k.runnable) > 0 {
				p := k.runnable[0]
				k.runnable = k.runnable[1:]
				p.runnable = false
				k.runProc(p)
			}

			// Update phase.
			ups := k.updates
			k.updates = nil
			for _, u := range ups {
				u.update()
			}

			// Delta notification phase.
			ds := k.deltas
			k.deltas = nil
			for _, e := range ds {
				if e.pending == pendingDelta {
					e.fire()
				}
			}

			if k.stopReq {
				k.sample()
				return nil
			}
		}

		k.sample()

		// ---- end of simulation cycle ----
		for _, h := range k.endCycleHooks {
			h(k)
		}
		// Hooks may have made processes runnable or queued deltas at the
		// current time; loop back into the delta loop without advancing.
		if len(k.runnable) > 0 || len(k.updates) > 0 || len(k.deltas) > 0 {
			continue
		}

		// Advance time.
		next := k.timed.peek()
		if next == nil {
			if len(k.cycleHooks) == 0 {
				return ErrDeadlock
			}
			// External activity could still arrive through hooks, but
			// with no timed events the simulation cannot advance.
			return ErrDeadlock
		}
		if next.due > until {
			k.now = until
			return nil
		}
		k.now = next.due
		for k.timed.Len() > 0 && k.timed.peek().due == k.now {
			k.timed.pop().fire()
		}
	}
}

// RunFor advances the simulation by d from the current time.
func (k *Kernel) RunFor(d Time) error { return k.Run(k.now + d) }

// Shutdown terminates all thread goroutines and runs finalizers. The
// kernel must not be used afterwards. It is safe to call Shutdown more
// than once.
func (k *Kernel) Shutdown() {
	if k.killing {
		return
	}
	k.killing = true
	for _, p := range k.procs {
		if p.kind != threadProc || p.finished {
			continue
		}
		if !p.started {
			p.start()
		}
		p.resume <- struct{}{}
		<-k.yield
	}
	for i := len(k.finalizers) - 1; i >= 0; i-- {
		k.finalizers[i]()
	}
	k.finalizers = nil
}

// sample lets every tracer record the state at the end of a delta/timed
// cycle.
func (k *Kernel) sample() {
	for _, t := range k.tracers {
		t.sample(k.now)
	}
}

// Module provides hierarchical naming for user components, loosely
// equivalent to sc_module. Embed it in model structs.
type Module struct {
	kernel *Kernel
	name   string
}

// NewModule creates a module attached to the kernel.
func (k *Kernel) NewModule(name string) Module {
	return Module{kernel: k, name: name}
}

// Kernel returns the owning kernel.
func (m *Module) Kernel() *Kernel { return m.kernel }

// Name returns the module instance name.
func (m *Module) Name() string { return m.name }

// Sub returns a hierarchical name "module.item" for naming child objects.
func (m *Module) Sub(item string) string {
	return fmt.Sprintf("%s.%s", m.name, item)
}

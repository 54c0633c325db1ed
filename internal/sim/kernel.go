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

	// The scheduler queues are reused across delta cycles so an idle
	// cycle allocates nothing: runnable is consumed from runHead and
	// truncated once drained; updates and deltas swap with a spare
	// buffer at each phase. Consumed slots are cleared so the buffers
	// retain no pointers.
	runnable     []*Proc
	runHead      int // next runnable entry to evaluate
	updates      []updatable
	spareUpdates []updatable
	deltas       []*Event
	spareDeltas  []*Event
	timed        timedQueue
	procs        []*Proc

	// The poll grid (see SetPollGrid): its spacing, and its next point
	// after now, which is zero when there is no grid or no point is left
	// before MaxTime.
	gridStep Time
	gridNext Time

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

// SetPollGrid makes every multiple of step a simulation cycle, even when
// no timed event is due then, so the cycle hooks get a time point to
// poll at without a clock process running. The grid points are exactly
// the edge times of a Clock with period 2*step, and a kernel with a grid
// always reaches Run's time limit instead of returning ErrDeadlock. This
// is how the kernel-embedded schemes check for ISS activity at the
// beginning of each simulation cycle with no clocked module attached.
// A zero step is rejected.
func (k *Kernel) SetPollGrid(step Time) error {
	if step == 0 {
		return errors.New("sim: poll grid step must be positive")
	}
	k.gridStep = step
	k.gridNext = k.nextGridPoint(k.now)
	return nil
}

// nextGridPoint returns the first grid point strictly after t, or zero
// when it would pass MaxTime.
func (k *Kernel) nextGridPoint(t Time) Time {
	n := t - t%k.gridStep
	if n > MaxTime-k.gridStep {
		return 0
	}
	return n + k.gridStep
}

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
// no runnable processes and no pending notifications. Cycle hooks do not
// prevent it: they run only at cycle boundaries, so with no timed event
// and no poll grid (SetPollGrid) the simulation cannot reach another one.
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
		for _, h := range k.cycleHooks {
			h(k)
		}

		// Delta loop: evaluate / update / delta-notify until quiescent.
		for k.pending() {
			k.deltaCount++

			// Evaluation phase. Immediate notifications may append to
			// k.runnable while we iterate; process until drained. The
			// head advances before the process runs, so a panicking
			// process leaves exactly the unrun ones queued.
			for k.runHead < len(k.runnable) {
				p := k.runnable[k.runHead]
				k.runnable[k.runHead] = nil
				k.runHead++
				p.runnable = false
				k.runProc(p)
			}
			k.runnable = k.runnable[:0]
			k.runHead = 0

			// Update phase. Updates requested while it runs go to the
			// other buffer and are applied in the next delta cycle.
			k.updates, k.spareUpdates = k.spareUpdates[:0], k.updates
			for _, u := range k.spareUpdates {
				u.update()
			}
			clear(k.spareUpdates)

			// Delta notification phase.
			k.deltas, k.spareDeltas = k.spareDeltas[:0], k.deltas
			for _, e := range k.spareDeltas {
				if e.pending == pendingDelta {
					e.fire()
				}
			}
			clear(k.spareDeltas)

			if k.stopReq {
				k.sample()
				return nil
			}
		}

		k.sample()
		// A hook may have stopped a cycle that had no delta work.
		if k.stopReq {
			return nil
		}

		// ---- end of simulation cycle ----
		for _, h := range k.endCycleHooks {
			h(k)
		}
		// Hooks may have made processes runnable or queued deltas at the
		// current time; loop back into the delta loop without advancing.
		if k.pending() {
			continue
		}

		// Advance time to the next timed event or grid point, whichever
		// comes first. Hooks run only at cycle boundaries, so with neither
		// left no further cycle can start: deadlock.
		next := k.gridNext
		if e := k.timed.peek(); e != nil && (next == 0 || e.due < next) {
			next = e.due
		} else if next == 0 {
			return ErrDeadlock
		}
		if next > until {
			k.now = until
			return nil
		}
		k.now = next
		if next == k.gridNext {
			k.gridNext = k.nextGridPoint(next)
		}
		for k.timed.Len() > 0 && k.timed.peek().due == k.now {
			k.timed.pop().fire()
		}
	}
}

// pending reports whether the current time point has work left: a
// runnable process, a requested update or a delta notification.
func (k *Kernel) pending() bool {
	return k.runHead < len(k.runnable) || len(k.updates) > 0 || len(k.deltas) > 0
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

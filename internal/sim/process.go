package sim

import (
	"fmt"
	"slices"
)

// procKind distinguishes method processes (run-to-completion callbacks,
// like SC_METHOD) from thread processes (coroutines, like SC_THREAD).
type procKind uint8

const (
	methodProc procKind = iota
	threadProc
	issProc // an iss_process in the terminology of the paper
)

// errKilled is panicked inside thread goroutines to unwind them when the
// kernel shuts down. The thread trampoline recovers it.
type killedError struct{}

func (killedError) Error() string { return "sim: thread killed" }

// Proc is a simulation process: either a method or a thread.
type Proc struct {
	k    *Kernel
	name string
	kind procKind

	fn   func()     // method body
	body func(*Ctx) // thread body

	static []*Event // static sensitivity list

	// Thread coroutine state.
	resume   chan struct{}
	started  bool
	finished bool

	// Dynamic wait state (threads only).
	waitingOn []*Event
	timeout   *Event // private timeout event for WaitTime / WaitTimeout
	wake      *Event // the event that woke the last Wait, nil on timeout

	runnable bool // already queued in the current evaluation phase
	ctx      *Ctx
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Finished reports whether a thread's body has returned.
func (p *Proc) Finished() bool { return p.finished }

// Ctx is the handle a thread body uses to interact with the scheduler.
// It is only valid inside the owning thread.
type Ctx struct {
	p *Proc
}

// Kernel returns the kernel that owns this thread.
func (c *Ctx) Kernel() *Kernel { return c.p.k }

// Now returns the current simulation time.
func (c *Ctx) Now() Time { return c.p.k.now }

// Method registers a run-to-completion process, statically sensitive to
// the given events. Like SC_METHOD, it is run once at the start of
// simulation and then each time a sensitive event triggers.
func (k *Kernel) Method(name string, fn func(), sensitivity ...*Event) *Proc {
	p := &Proc{k: k, name: name, kind: methodProc, fn: fn}
	k.register(p, sensitivity)
	return p
}

// MethodNoInit registers a method process that is not run at simulation
// start (the equivalent of SC_METHOD + dont_initialize()).
func (k *Kernel) MethodNoInit(name string, fn func(), sensitivity ...*Event) *Proc {
	p := k.Method(name, fn, sensitivity...)
	k.unqueue(p)
	return p
}

// Thread registers a coroutine process. The body runs in its own
// goroutine but the kernel guarantees that at any instant at most one
// process (or the scheduler itself) is executing, so no locking is
// needed between processes.
//
// Each activation costs two goroutine handoffs over unbuffered channels
// (resume, then yield back): about 0.8µs against 0.06µs for a Method
// re-armed by a timed notification (BenchmarkThreadActivation and
// BenchmarkMethodActivation on a 2-CPU Xeon). A process that runs often
// should be a Method.
func (k *Kernel) Thread(name string, body func(*Ctx)) *Proc {
	p := &Proc{k: k, name: name, kind: threadProc, body: body, resume: make(chan struct{})}
	p.ctx = &Ctx{p: p}
	k.register(p, nil)
	return p
}

// register adds the process to the kernel and makes it runnable for the
// initialization phase.
func (k *Kernel) register(p *Proc, sensitivity []*Event) {
	if k.running {
		panic(fmt.Sprintf("sim: process %q registered while simulation is running", p.name))
	}
	for _, e := range sensitivity {
		e.addStatic(p)
		p.static = append(p.static, e)
	}
	k.procs = append(k.procs, p)
	k.makeRunnable(p)
}

// unqueue removes p from the runnable queue (dont_initialize).
func (k *Kernel) unqueue(p *Proc) {
	if !p.runnable {
		return
	}
	p.runnable = false
	for i := k.runHead; i < len(k.runnable); i++ {
		if k.runnable[i] == p {
			k.runnable = append(k.runnable[:i], k.runnable[i+1:]...)
			return
		}
	}
}

// start launches the thread goroutine; it idles until first resumed.
func (p *Proc) start() {
	p.started = true
	go func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killedError); !ok {
					p.k.threadPanic = r
				}
			}
			p.finished = true
			p.k.yield <- struct{}{}
		}()
		<-p.resume
		if p.k.killing {
			panic(killedError{})
		}
		p.body(p.ctx)
	}()
}

// run executes the process for one activation: methods run to
// completion, threads run until their next Wait (or return).
func (k *Kernel) runProc(p *Proc) {
	k.current = p
	k.activations++
	switch p.kind {
	case methodProc, issProc:
		p.fn()
	case threadProc:
		if p.finished {
			break
		}
		if !p.started {
			p.start()
		}
		p.resume <- struct{}{}
		<-k.yield
		if k.threadPanic != nil {
			r := k.threadPanic
			k.threadPanic = nil
			panic(r)
		}
	}
	k.current = nil
}

// clearDynamic removes the process from every event it was waiting on.
func (p *Proc) clearDynamic() {
	for _, e := range p.waitingOn {
		e.removeDynamic(p)
	}
	p.waitingOn = p.waitingOn[:0]
}

// suspend parks the calling thread goroutine and returns control to the
// scheduler. It resumes when the kernel next runs the process.
func (p *Proc) suspend() {
	p.k.yield <- struct{}{}
	<-p.resume
	if p.k.killing {
		panic(killedError{})
	}
}

// Wait blocks the thread until one of the given events triggers and
// returns the event that woke it. With no arguments it waits on the
// thread's static sensitivity list.
func (c *Ctx) Wait(events ...*Event) *Event {
	p := c.p
	if len(events) == 0 {
		events = p.static
	}
	if len(events) == 0 {
		panic(fmt.Sprintf("sim: thread %q waits with no events and no static sensitivity", p.name))
	}
	for _, e := range events {
		e.dynamic = append(e.dynamic, p)
		p.waitingOn = append(p.waitingOn, e)
	}
	p.wake = nil
	p.suspend()
	return p.wake
}

// WaitTime blocks the thread for duration d of simulated time.
func (c *Ctx) WaitTime(d Time) {
	p := c.p
	if p.timeout == nil {
		p.timeout = p.k.NewEvent(p.name + ".timeout")
	}
	p.timeout.NotifyAfter(d)
	c.Wait(p.timeout)
}

// WaitTimeout waits for any of the events or until d elapses, whichever
// comes first. It returns the triggering event, or nil on timeout.
func (c *Ctx) WaitTimeout(d Time, events ...*Event) *Event {
	p := c.p
	if p.timeout == nil {
		p.timeout = p.k.NewEvent(p.name + ".timeout")
	}
	p.timeout.NotifyAfter(d)
	// Clip so append copies: the caller's spare capacity stays untouched.
	woke := c.Wait(append(slices.Clip(events), p.timeout)...)
	if woke == p.timeout {
		return nil
	}
	p.timeout.Cancel()
	return woke
}

// WaitDelta blocks the thread for exactly one delta cycle.
func (c *Ctx) WaitDelta() {
	p := c.p
	if p.timeout == nil {
		p.timeout = p.k.NewEvent(p.name + ".timeout")
	}
	p.timeout.NotifyDelta()
	c.Wait(p.timeout)
}

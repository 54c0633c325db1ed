package sim

import "fmt"

// Proc is a simulation process: a run-to-completion callback, like
// SC_METHOD, run each time an event it is statically sensitive to
// triggers. A process never blocks; one that must wait for time to pass
// re-arms an event it is sensitive to and returns.
type Proc struct {
	name     string
	fn       func()
	runnable bool // already queued in the current evaluation phase
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Method registers a run-to-completion process, statically sensitive to
// the given events. Like SC_METHOD, it is run once at the start of
// simulation and then each time a sensitive event triggers.
func (k *Kernel) Method(name string, fn func(), sensitivity ...*Event) *Proc {
	p := k.MethodNoInit(name, fn, sensitivity...)
	k.makeRunnable(p)
	return p
}

// MethodNoInit registers a method process that is not run at simulation
// start (the equivalent of SC_METHOD + dont_initialize()).
func (k *Kernel) MethodNoInit(name string, fn func(), sensitivity ...*Event) *Proc {
	if k.running {
		panic(fmt.Sprintf("sim: process %q registered while simulation is running", name))
	}
	return newProc(name, fn, sensitivity)
}

// newProc creates a process statically sensitive to the given events,
// without queueing it for the initialization phase.
func newProc(name string, fn func(), sensitivity []*Event) *Proc {
	p := &Proc{name: name, fn: fn}
	for _, e := range sensitivity {
		e.static = append(e.static, p)
	}
	return p
}

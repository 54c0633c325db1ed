package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// runKernel runs the kernel until the given time and fails the test on
// unexpected errors, shutting the kernel down afterwards.
func runKernel(t *testing.T, k *Kernel, until Time) {
	t.Helper()
	if err := k.Run(until); err != nil && err != ErrDeadlock {
		t.Fatalf("Run: %v", err)
	}
	t.Cleanup(k.Shutdown)
}

// sleeps registers a method that waits out each of the delays in turn:
// its initialization run arms the first delay, and each wake-up calls
// fn and arms the next one, if any.
func sleeps(k *Kernel, name string, delays []Time, fn func()) {
	wake := k.NewEvent(name + ".wake")
	next := 0
	k.Method(name, func() {
		if next > 0 {
			fn()
		}
		if next < len(delays) {
			wake.NotifyAfter(delays[next])
		}
		next++
	}, wake)
}

// ticks returns n delays of d each.
func ticks(d Time, n int) []Time {
	delays := make([]Time, n)
	for i := range delays {
		delays[i] = d
	}
	return delays
}

func TestMethodRunsAtInit(t *testing.T) {
	k := NewKernel("t")
	ran := 0
	k.Method("m", func() { ran++ })
	runKernel(t, k, 10*NS)
	if ran != 1 {
		t.Fatalf("method ran %d times, want 1 (initialization)", ran)
	}
}

func TestMethodNoInit(t *testing.T) {
	k := NewKernel("t")
	ran := 0
	e := k.NewEvent("e")
	k.MethodNoInit("m", func() { ran++ }, e)
	e.NotifyAfter(5 * NS)
	runKernel(t, k, 10*NS)
	if ran != 1 {
		t.Fatalf("method ran %d times, want exactly 1 (no init run)", ran)
	}
}

func TestTimedNotification(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	var at Time
	k.MethodNoInit("m", func() { at = k.Now() }, e)
	e.NotifyAfter(7 * NS)
	runKernel(t, k, 100*NS)
	if at != 7*NS {
		t.Fatalf("triggered at %v, want 7ns", at)
	}
}

func TestDeltaNotification(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	var deltaAtTrigger uint64
	k.MethodNoInit("m", func() { deltaAtTrigger = k.DeltaCount() }, e)
	k.Method("starter", func() { e.NotifyDelta() })
	runKernel(t, k, NS)
	if deltaAtTrigger != 2 {
		t.Fatalf("triggered in delta %d, want 2 (one delta after init)", deltaAtTrigger)
	}
}

func TestImmediateNotification(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	order := []string{}
	k.MethodNoInit("listener", func() { order = append(order, "listener") }, e)
	k.Method("starter", func() {
		order = append(order, "starter")
		e.Notify() // immediate: listener runs in the same evaluation phase
	})
	runKernel(t, k, NS)
	if len(order) != 2 || order[0] != "starter" || order[1] != "listener" {
		t.Fatalf("order = %v", order)
	}
	if k.DeltaCount() != 1 {
		t.Fatalf("deltas = %d, want 1 (immediate stays within one delta)", k.DeltaCount())
	}
}

func TestNotifyOverrideRules(t *testing.T) {
	// Timed notification is overridden by an earlier timed one.
	k := NewKernel("t")
	e := k.NewEvent("e")
	var fired []Time
	k.MethodNoInit("m", func() { fired = append(fired, k.Now()) }, e)
	e.NotifyAfter(10 * NS)
	e.NotifyAfter(3 * NS)  // earlier wins
	e.NotifyAfter(20 * NS) // later is ignored
	runKernel(t, k, 100*NS)
	if len(fired) != 1 || fired[0] != 3*NS {
		t.Fatalf("fired = %v, want [3ns]", fired)
	}
}

// TestNotifyAtNowIsDelta: a timed notification at or before Now is a
// delta notification, like notify(SC_ZERO_TIME): the event fires at the
// current time point without visiting it again.
func TestNotifyAtNowIsDelta(t *testing.T) {
	for _, back := range []Time{0, 5 * NS} {
		k := NewKernel("t")
		var begins, fired []Time
		k.AddCycleHook(func(k *Kernel) { begins = append(begins, k.Now()) })
		e := k.NewEvent("e")
		k.MethodNoInit("m", func() { fired = append(fired, k.Now()) }, e)
		sleeps(k, "th", ticks(10*NS, 1), func() { e.NotifyAt(k.Now() - back) })
		if err := k.Run(100 * NS); err != ErrDeadlock {
			t.Fatalf("NotifyAt(now-%v): Run = %v, want ErrDeadlock", back, err)
		}
		if fmt.Sprint(begins) != "[0ps 10ns]" || k.CycleCount() != 2 || fmt.Sprint(fired) != "[10ns]" {
			t.Fatalf("NotifyAt(now-%v): cycles began at %v (%d cycles), fired at %v; want [0ps 10ns], 2, [10ns]",
				back, begins, k.CycleCount(), fired)
		}
	}
}

// TestNotifyAtZeroWithoutGrid: NotifyAt(0) before the first Run fires
// in the initialization time point, and with nothing left to visit the
// kernel then deadlocks.
func TestNotifyAtZeroWithoutGrid(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	fired := 0
	k.MethodNoInit("m", func() { fired++ }, e)
	e.NotifyAt(0)
	if err := k.Run(NS); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if fired != 1 || k.CycleCount() != 1 {
		t.Fatalf("fired %d times in %d cycles, want 1 in 1", fired, k.CycleCount())
	}
}

func TestDeltaOverridesTimed(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	count := 0
	k.MethodNoInit("m", func() { count++ }, e)
	k.Method("starter", func() {
		e.NotifyAfter(10 * NS)
		e.NotifyDelta() // delta overrides pending timed
	})
	runKernel(t, k, 100*NS)
	if count != 1 {
		t.Fatalf("fired %d times, want 1", count)
	}
	if k.timed.Len() != 0 {
		t.Fatalf("timed queue still has %d entries", k.timed.Len())
	}
}

func TestCancel(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	count := 0
	k.MethodNoInit("m", func() { count++ }, e)
	e.NotifyAfter(5 * NS)
	e.Cancel()
	runKernel(t, k, 100*NS)
	if count != 0 {
		t.Fatalf("fired %d times after cancel, want 0", count)
	}
}

func TestCancelDeltaWhileQueued(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("e")
	count := 0
	k.MethodNoInit("m", func() { count++ }, e)
	k.Method("starter", func() {
		e.NotifyDelta()
		e.Cancel()
	})
	runKernel(t, k, NS)
	if count != 0 {
		t.Fatalf("fired %d times after cancelled delta, want 0", count)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel("t")
	n := 0
	sleeps(k, "th", ticks(NS, 10), func() {
		n++
		if n == 5 {
			k.Stop()
		}
	})
	runKernel(t, k, 1000*NS)
	if n != 5 {
		t.Fatalf("iterations = %d, want 5", n)
	}
	if k.Now() != 5*NS {
		t.Fatalf("stopped at %v, want 5ns", k.Now())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel("t")
	e := k.NewEvent("never")
	k.Method("stuck", func() {}, e)
	err := k.Run(100 * NS)
	k.Shutdown()
	if err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}

	// A registered cycle hook does not change the outcome: hooks run
	// only at cycle boundaries, and with no timed event left there is
	// no further boundary to reach.
	k = NewKernel("t")
	e = k.NewEvent("never")
	hooks := 0
	k.AddCycleHook(func(*Kernel) { hooks++ })
	k.Method("stuck", func() {}, e)
	err = k.Run(100 * NS)
	k.Shutdown()
	if err != ErrDeadlock {
		t.Fatalf("with a cycle hook: Run = %v, want ErrDeadlock", err)
	}
	if hooks != 1 {
		t.Fatalf("with a cycle hook: hook ran %d times, want 1 (the init cycle)", hooks)
	}
}

func TestImmediateRenotifyRequeuesInSamePhase(t *testing.T) {
	// A process that immediately notifies an event it is sensitive to is
	// queued again behind the processes already runnable, and runs again
	// in the same evaluation phase.
	k := NewKernel("t")
	e := k.NewEvent("again")
	var order []string
	runs := 0
	k.Method("a", func() {
		order = append(order, "a")
		if runs++; runs == 1 {
			e.Notify()
		}
	}, e)
	k.Method("b", func() { order = append(order, "b") })
	k.Method("c", func() { order = append(order, "c") })
	runKernel(t, k, NS)
	if got, want := strings.Join(order, " "), "a b c a"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
	if k.DeltaCount() != 1 {
		t.Fatalf("deltas = %d, want 1 (the re-run stays in the init phase)", k.DeltaCount())
	}
}

func TestPanicLeavesUnrunProcessesQueued(t *testing.T) {
	// A method that panics mid-evaluation propagates out of Run; the
	// processes queued behind it stay queued and run on the next Run.
	k := NewKernel("t")
	var order []string
	first := true
	k.Method("a", func() { order = append(order, "a") })
	k.Method("boom", func() {
		if first {
			first = false
			panic("bang")
		}
		order = append(order, "boom")
	})
	k.Method("b", func() { order = append(order, "b") })
	k.Method("c", func() { order = append(order, "c") })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected the method's panic to propagate")
			}
		}()
		_ = k.Run(NS)
	}()
	runKernel(t, k, NS)
	if got, want := strings.Join(order, " "), "a b c"; got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestThreadPanicPropagates(t *testing.T) {
	// A process that panics after simulated time has advanced
	// propagates the panic out of Run, at the time it was woken.
	k := NewKernel("t")
	wake := k.NewEvent("wake")
	k.Method("boom", func() {
		if k.Now() == 0 {
			wake.NotifyAfter(NS)
			return
		}
		panic("bang")
	}, wake)
	defer func() {
		k.Shutdown()
		if r := recover(); r != "bang" {
			t.Fatalf("recovered %v, want the process's panic", r)
		}
		if k.Now() != NS {
			t.Fatalf("panicked at %v, want %v", k.Now(), NS)
		}
	}()
	_ = k.Run(10 * NS)
	t.Fatal("Run returned normally")
}

func TestSteadyStateCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	t.Run("clock", func(t *testing.T) {
		k := NewKernel("t")
		defer k.Shutdown()
		clk := NewClock(k, "clk", 10*NS)
		checkSteadyStateAllocs(t, k, clk.Pos(), 100*clk.Period(), 100)
	})
	t.Run("deadline", func(t *testing.T) {
		// No clock: each cycle's begin hook schedules the next time point
		// with CallAt, as a Driver-Kernel request schedules its skew
		// deadline, and the call wakes the writer.
		k := NewKernel("t")
		defer k.Shutdown()
		tick := k.NewEvent("tick")
		wake := func() { tick.Notify() }
		k.AddCycleHook(func(k *Kernel) { k.CallAt(k.Now()+5*NS, wake) })
		checkSteadyStateAllocs(t, k, tick, 200*5*NS, 200)
	})
}

// checkSteadyStateAllocs requires RunFor(span) to allocate nothing once
// the scheduler queues and a FIFO ring have reached size, in a model
// whose writer wakes on pace, and the hooks to run at least cycles
// times per span.
func checkSteadyStateAllocs(t *testing.T, k *Kernel, pace *Event, span Time, cycles int) {
	t.Helper()
	sig := NewSignal[int](k, "sig")
	f := NewFifo[int](k, "f", 4)
	var v, got, begins, ends int
	k.MethodNoInit("writer", func() {
		v++
		sig.Write(v)
		f.TryWrite(v)
	}, pace)
	k.MethodNoInit("reader", func() {
		if x, ok := f.TryRead(); ok {
			got = x
		}
	}, f.DataWritten())
	k.AddCycleHook(func(*Kernel) { begins++ })
	k.AddEndCycleHook(func(*Kernel) { ends++ })

	run := func() {
		if err := k.RunFor(span); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: the scheduler queues and the FIFO ring reach size
	before := begins
	allocs := testing.AllocsPerRun(10, run)
	if allocs != 0 {
		t.Fatalf("RunFor(%v) allocates %.1f times, want 0", span, allocs)
	}
	if got != v || sig.Read() != v || v == 0 || ends == 0 {
		t.Fatalf("model did not run: wrote %d, read %d, signal %d, end hooks %d", v, got, sig.Read(), ends)
	}
	// AllocsPerRun adds one warm-up call to its 10 runs.
	if n := (begins - before) / 11; n < cycles {
		t.Fatalf("%d cycles per RunFor(%v), want at least %d", n, span, cycles)
	}
}

func TestRunInSlices(t *testing.T) {
	k := NewKernel("t")
	var stamps []Time
	sleeps(k, "th", ticks(10*NS, 10), func() { stamps = append(stamps, k.Now()) })
	if err := k.Run(25 * NS); err != nil {
		t.Fatal(err)
	}
	if len(stamps) != 2 {
		t.Fatalf("after first slice stamps = %v", stamps)
	}
	if err := k.Run(45 * NS); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(stamps) != 4 {
		t.Fatalf("after second slice stamps = %v", stamps)
	}
	if k.Now() != 45*NS {
		t.Fatalf("now = %v", k.Now())
	}
}

func TestCycleHooks(t *testing.T) {
	k := NewKernel("t")
	var begins, ends int
	k.AddCycleHook(func(*Kernel) { begins++ })
	k.AddEndCycleHook(func(*Kernel) { ends++ })
	sleeps(k, "th", ticks(10*NS, 3), func() {})
	runKernel(t, k, 35*NS)
	if begins == 0 || ends == 0 {
		t.Fatalf("hooks not called: begins=%d ends=%d", begins, ends)
	}
	// One begin hook per simulation cycle: init + 3 wakeups.
	if begins != 4 {
		t.Fatalf("begins = %d, want 4", begins)
	}
}

func TestEndCycleHookCanInjectWork(t *testing.T) {
	// An end-of-cycle hook that makes new work at the current time must
	// cause another delta loop, not a time advance (Driver-Kernel
	// interrupt delivery relies on this).
	k := NewKernel("t")
	e := k.NewEvent("irq")
	fired := 0
	k.MethodNoInit("isr", func() { fired++ }, e)
	injected := false
	k.AddEndCycleHook(func(kk *Kernel) {
		if !injected && kk.Now() == 10*NS {
			injected = true
			e.NotifyDelta()
		}
	})
	sleeps(k, "th", ticks(10*NS, 1), func() {})
	runKernel(t, k, 50*NS)
	if fired != 1 {
		t.Fatalf("isr fired %d times, want 1", fired)
	}
}

func TestFinalizersRunOnShutdown(t *testing.T) {
	k := NewKernel("t")
	var order []int
	k.AddFinalizer(func() { order = append(order, 1) })
	k.AddFinalizer(func() { order = append(order, 2) })
	k.Shutdown()
	if len(order) != 2 || order[0] != 2 || order[1] != 1 {
		t.Fatalf("finalizer order = %v, want [2 1]", order)
	}
	// A second Shutdown is a no-op.
	k.Shutdown()
	if len(order) != 2 {
		t.Fatalf("second Shutdown ran finalizers again: %v", order)
	}
}

func TestShutdownUnblocksThreads(t *testing.T) {
	// A process left waiting on an event that never fires holds no host
	// thread: Run and Shutdown leave no goroutine behind, the waiting
	// process is never run, and a second Shutdown is a no-op.
	before := runtime.NumGoroutine()
	k := NewKernel("t")
	e := k.NewEvent("never")
	runs := 0
	k.MethodNoInit("stuck", func() { runs++ }, e)
	if err := k.Run(10 * NS); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	k.Shutdown()
	k.Shutdown()
	if runs != 0 {
		t.Fatalf("waiting process ran %d times", runs)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the kernel, %d after Shutdown", before, after)
	}
}

func TestDeterministicTimedOrdering(t *testing.T) {
	// Events scheduled for the same instant fire in scheduling order.
	k := NewKernel("t")
	var order []string
	for _, name := range []string{"a", "b", "c", "d"} {
		name := name
		e := k.NewEvent(name)
		k.MethodNoInit(name, func() { order = append(order, name) }, e)
		e.NotifyAfter(10 * NS)
	}
	runKernel(t, k, 100*NS)
	if got := len(order); got != 4 {
		t.Fatalf("order = %v", order)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if order[i] != want {
			t.Fatalf("order = %v, want [a b c d]", order)
		}
	}
}

func TestCallAt(t *testing.T) {
	k := NewKernel("t")
	var order []Time
	sleeps(k, "keeper", ticks(10*NS, 10), func() {}) // keeps timed activity alive
	k.CallAt(25*NS, func() { order = append(order, k.Now()) })
	k.CallAt(5*NS, func() { order = append(order, k.Now()) })
	k.CallAt(25*NS, func() { order = append(order, k.Now()) })
	runKernel(t, k, 100*NS)
	if len(order) != 3 || order[0] != 5*NS || order[1] != 25*NS || order[2] != 25*NS {
		t.Fatalf("order = %v", order)
	}
}

func TestCallAtOrdersByTimeThenCall(t *testing.T) {
	// Calls run by due time; calls due at the same time run in CallAt
	// order, however many are queued.
	k := NewKernel("t")
	sleeps(k, "keeper", ticks(100*NS, 1), func() {})
	var got []int
	due := []Time{30, 10, 20, 10, 30, 20, 10, 30, 20, 10}
	for i, d := range due {
		k.CallAt(d*NS, func() { got = append(got, i) })
	}
	runKernel(t, k, 100*NS)
	want := []int{1, 3, 6, 9, 2, 5, 8, 0, 4, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("call order = %v, want %v", got, want)
	}
}

func TestCallAtPastRunsImmediately(t *testing.T) {
	k := NewKernel("t")
	ran := false
	var at Time
	sleeps(k, "th", []Time{50 * NS, 10 * NS}, func() {
		if k.Now() == 50*NS {
			k.CallAt(10*NS, func() { ran, at = true, k.Now() }) // in the past
		} else if !ran {
			t.Error("past CallAt did not run promptly")
		}
	})
	runKernel(t, k, 200*NS)
	if !ran {
		t.Fatal("never ran")
	}
	if at != 50*NS {
		t.Fatalf("past CallAt ran at %v, want 50ns (the next delta cycle)", at)
	}
}

func TestCallAfterChaining(t *testing.T) {
	k := NewKernel("t")
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 5 {
			k.CallAfter(10*NS, chain)
		}
	}
	k.CallAfter(10*NS, chain)
	runKernel(t, k, MS)
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

// BenchmarkMethodActivation times one activation of a method that
// re-arms itself 1ns ahead through a timed self-notification.
func BenchmarkMethodActivation(b *testing.B) {
	k := NewKernel("b")
	defer k.Shutdown()
	tick := k.NewEvent("tick")
	k.Method("m", func() { tick.NotifyAfter(NS) }, tick)
	b.ResetTimer()
	if err := k.Run(Time(b.N) * NS); err != nil {
		b.Fatal(err)
	}
}

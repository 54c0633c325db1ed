package sim

import (
	"fmt"
	"slices"
	"testing"
)

// gridModel attaches the same model to k and returns a function that
// runs it in slices and returns everything its hooks and processes saw:
// timed waits on and between grid points, CallAt stamps between grid
// points (one made from a hook, as a scheme stamps a guest message),
// and a Stop from a begin-of-cycle hook at a grid point with no other
// activity.
func gridModel(k *Kernel, step Time) func() []string {
	var trace []string
	note := func(format string, args ...any) { trace = append(trace, fmt.Sprintf(format, args...)) }
	k.Thread("timer", func(c *Ctx) {
		// 7 steps lands on the grid, the others between its points.
		for _, d := range []Time{step + 2*PS, 7*step - 2*PS, step / 2, 9 * step} {
			c.WaitTime(d)
			note("wait@%v", c.Now())
		}
	})
	k.CallAt(3*step+345*PS, func() { note("call@%v", k.Now()) })
	stopAt, stopped := 13*step, false
	k.AddCycleHook(func(k *Kernel) {
		note("begin@%v", k.Now())
		if k.Now() == 4*step {
			k.CallAt(k.Now()+step/3, func() { note("hook-call@%v", k.Now()) })
		}
		if k.Now() == stopAt && !stopped {
			stopped = true
			k.Stop()
		}
	})
	k.AddEndCycleHook(func(k *Kernel) { note("end@%v", k.Now()) })
	return func() []string {
		for _, until := range []Time{2*step + 1, 5 * step, stopAt + step, 24*step + 3, 40 * step} {
			err := k.Run(until)
			note("run(%v) = %v at %v", until, err, k.Now())
		}
		return trace
	}
}

// TestPollGridMatchesListenerlessClock: a poll grid of step h visits the
// same time points as a clock of period 2h that nothing listens to, so
// the cycle hooks see the same Now() sequence and the model the same
// history, with fewer process activations and no ErrDeadlock.
func TestPollGridMatchesListenerlessClock(t *testing.T) {
	for _, step := range []Time{5 * NS, 3 * NS, 2 * PS} {
		t.Run(step.String(), func(t *testing.T) {
			clocked := NewKernel("clocked")
			defer clocked.Shutdown()
			NewClock(clocked, "clk", 2*step)
			want := gridModel(clocked, step)()

			grid := NewKernel("grid")
			defer grid.Shutdown()
			if err := grid.SetPollGrid(step); err != nil {
				t.Fatal(err)
			}
			got := gridModel(grid, step)()

			if !slices.Equal(got, want) {
				t.Fatalf("grid history differs from the clocked one:\n got %q\nwant %q", got, want)
			}
			if grid.Now() != 40*step {
				t.Fatalf("grid kernel stopped at %v, want 40 steps (%v)", grid.Now(), 40*step)
			}
			if grid.CycleCount() != clocked.CycleCount() {
				t.Fatalf("cycles: grid %d, clocked %d", grid.CycleCount(), clocked.CycleCount())
			}
			if grid.Activations() >= clocked.Activations() {
				t.Fatalf("activations: grid %d, clocked %d; the grid should save the clock's", grid.Activations(), clocked.Activations())
			}
		})
	}
}

func TestPollGridRejectsZeroStep(t *testing.T) {
	k := NewKernel("t")
	defer k.Shutdown()
	if err := k.SetPollGrid(0); err == nil {
		t.Fatal("SetPollGrid(0) accepted a grid that never advances")
	}
	// The rejected call left no grid behind: the kernel still deadlocks.
	if err := k.Run(NS); err != ErrDeadlock {
		t.Fatalf("Run after a rejected grid = %v, want ErrDeadlock", err)
	}
}

// TestPollGridReachesUntil: with a grid, a model with nothing left to do
// still advances to the time limit, polling at every grid point.
func TestPollGridReachesUntil(t *testing.T) {
	k := NewKernel("t")
	defer k.Shutdown()
	e := k.NewEvent("never")
	k.Thread("stuck", func(c *Ctx) { c.Wait(e) })
	var polls []Time
	k.AddCycleHook(func(k *Kernel) { polls = append(polls, k.Now()) })
	if err := k.SetPollGrid(10 * NS); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(35 * NS); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if want := []Time{0, 10 * NS, 20 * NS, 30 * NS}; !slices.Equal(polls, want) || k.Now() != 35*NS {
		t.Fatalf("polled at %v, ended at %v; want %v, 35ns", polls, k.Now(), want)
	}
	// A grid set mid-run starts from the current time.
	if err := k.SetPollGrid(4 * NS); err != nil {
		t.Fatal(err)
	}
	polls = polls[:0]
	if err := k.Run(45 * NS); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if want := []Time{35 * NS, 36 * NS, 40 * NS, 44 * NS}; !slices.Equal(polls, want) {
		t.Fatalf("after a new step polled at %v, want %v", polls, want)
	}
}

// TestPollGridEndsAtMaxTime: a grid whose next point would pass MaxTime
// has no further points, so the kernel deadlocks there instead of
// wrapping to time zero.
func TestPollGridEndsAtMaxTime(t *testing.T) {
	k := NewKernel("t")
	defer k.Shutdown()
	if err := k.SetPollGrid(MaxTime / 2); err != nil {
		t.Fatal(err)
	}
	var polls []Time
	k.AddCycleHook(func(k *Kernel) { polls = append(polls, k.Now()) })
	if err := k.Run(MaxTime); err != ErrDeadlock {
		t.Fatalf("Run = %v, want ErrDeadlock past the last grid point", err)
	}
	if want := []Time{0, MaxTime / 2, MaxTime - 1}; !slices.Equal(polls, want) {
		t.Fatalf("polled at %v, want %v", polls, want)
	}
}

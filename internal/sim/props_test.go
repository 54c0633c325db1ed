package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestSchedulerDeterminism: the same program of notifications produces
// the same firing trace on every run — the delta/timed machinery has no
// hidden map-iteration or goroutine-order dependence.
func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel("d")
		var trace []string
		events := make([]*Event, 8)
		for i := range events {
			name := string(rune('a' + i))
			e := k.NewEvent(name)
			events[i] = e
			k.MethodNoInit(name, func() {
				trace = append(trace, name+"@"+k.Now().String())
				// Random follow-on notifications, deterministic per seed.
				switch rng.Intn(3) {
				case 0:
					events[rng.Intn(len(events))].NotifyDelta()
				case 1:
					events[rng.Intn(len(events))].NotifyAfter(Time(rng.Intn(50)) * NS)
				}
			}, e)
		}
		for i := 0; i < 20; i++ {
			events[rng.Intn(len(events))].NotifyAfter(Time(rng.Intn(100)) * NS)
		}
		_ = k.Run(10 * US)
		k.Shutdown()
		return trace
	}
	for seed := int64(0); seed < 10; seed++ {
		t1, t2 := run(seed), run(seed)
		if len(t1) != len(t2) {
			t.Fatalf("seed %d: trace lengths differ (%d vs %d)", seed, len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("seed %d: traces diverge at %d: %s vs %s", seed, i, t1[i], t2[i])
			}
		}
	}
}

// TestTimeMonotonicity: a process observing Now() across arbitrary
// waits never sees time move backwards, and wakeups land exactly on
// schedule.
func TestTimeMonotonicity(t *testing.T) {
	f := func(delaysRaw []uint16) bool {
		if len(delaysRaw) == 0 || len(delaysRaw) > 50 {
			return true
		}
		k := NewKernel("m")
		delays := make([]Time, len(delaysRaw))
		for i, d := range delaysRaw {
			delays[i] = Time(d) * NS
		}
		ok, woken := true, 0
		var prev Time
		sleeps(k, "walker", delays, func() {
			if k.Now() != prev+delays[woken] {
				ok = false
			}
			prev = k.Now()
			woken++
		})
		_ = k.Run(MaxTime)
		k.Shutdown()
		return ok && woken == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSignalLastWriterWinsProperty: with several writers in one delta,
// the published value is the last Write in process order.
func TestSignalLastWriterWinsProperty(t *testing.T) {
	f := func(vals []int32) bool {
		if len(vals) == 0 || len(vals) > 20 {
			return true
		}
		k := NewKernel("s")
		sig := NewSignal[int32](k, "sig")
		k.Method("writer", func() {
			for _, v := range vals {
				sig.Write(v)
			}
		})
		_ = k.Run(NS)
		k.Shutdown()
		return sig.Read() == vals[len(vals)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFifoOrderPreserved: items always come out in insertion order even
// under random interleavings of reads and writes.
func TestFifoOrderPreserved(t *testing.T) {
	f := func(ops []bool) bool {
		k := NewKernel("f")
		q := NewFifo[int](k, "q", 8)
		nextW, nextR := 0, 0
		good := true
		for _, isW := range ops {
			if isW {
				if q.TryWrite(nextW) {
					nextW++
				}
			} else if v, ok := q.TryRead(); ok {
				if v != nextR {
					good = false
				}
				nextR++
			}
		}
		k.Shutdown()
		return good
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEventCancelThenRenotify: cancelling a timed notification and
// re-arming later must fire exactly once at the new time.
func TestEventCancelThenRenotify(t *testing.T) {
	k := NewKernel("c")
	e := k.NewEvent("e")
	var fired []Time
	k.MethodNoInit("m", func() { fired = append(fired, k.Now()) }, e)
	e.NotifyAfter(10 * NS)
	e.Cancel()
	e.NotifyAfter(30 * NS)
	_ = k.Run(100 * NS)
	k.Shutdown()
	if len(fired) != 1 || fired[0] != 30*NS {
		t.Fatalf("fired = %v", fired)
	}
}

// TestMassiveTimedQueue stresses the heap with thousands of events.
func TestMassiveTimedQueue(t *testing.T) {
	k := NewKernel("big")
	rng := rand.New(rand.NewSource(42))
	fired := 0
	var lastTime Time
	for i := 0; i < 5000; i++ {
		e := k.NewEvent("e")
		k.MethodNoInit("m", func() {
			if k.Now() < lastTime {
				t.Error("time went backwards")
			}
			lastTime = k.Now()
			fired++
		}, e)
		e.NotifyAfter(Time(rng.Intn(1_000_000)) * NS)
	}
	if err := k.Run(MaxTime); err != nil && err != ErrDeadlock {
		t.Fatal(err)
	}
	k.Shutdown()
	if fired != 5000 {
		t.Fatalf("fired = %d", fired)
	}
}

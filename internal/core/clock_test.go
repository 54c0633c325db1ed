package core

import (
	"testing"

	"cosim/internal/obs"
	"cosim/internal/sim"
)

// clockCase is one guestClock row: an anchor, a run against it, the
// time the run returns and the anchor it leaves.
type clockCase struct {
	name   string
	period sim.Time
	cycles uint64   // anchor before run
	at     sim.Time // ...
	run    func(t *testing.T, g *guestClock) sim.Time
	want   sim.Time
	// the anchor after run
	wantCycles uint64
	wantAt     sim.Time
}

const clockPeriod = 10 * sim.NS

// runClockCases runs each case against a fresh guestClock on a kernel
// that stands at 1 µs.
func runClockCases(t *testing.T, cases []clockCase) {
	t.Helper()
	k := sim.NewKernel("t")
	defer k.Shutdown()
	advanceKernel(t, k, sim.US)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := &guestClock{k: k, period: tc.period, cycles: tc.cycles, at: tc.at}
			if got := tc.run(t, g); got != tc.want {
				t.Errorf("time = %v, want %v", got, tc.want)
			}
			if g.cycles != tc.wantCycles || g.at != tc.wantAt {
				t.Errorf("anchor = (%#x, %v), want (%#x, %v)", g.cycles, g.at, tc.wantCycles, tc.wantAt)
			}
		})
	}
}

// TestTargetTimeWraparound pins the stamp-to-time rule: a cycle count
// that passes the 32-bit ceiling counts on without a wrap, one that
// stays below it, and the untimed period that maps every stamp to now.
func TestTargetTimeWraparound(t *testing.T) {
	const period = clockPeriod
	runClockCases(t, []clockCase{{
		// Anchored just below the 32-bit ceiling; the guest then runs
		// 0x20 cycles, past where a 32-bit counter would wrap to zero.
		name: "32-bit stamp across a wrap", period: period, cycles: 0xfffffff0, at: 500 * sim.NS,
		run:  func(_ *testing.T, g *guestClock) sim.Time { return g.timeOf(1<<32 + 0x10) },
		want: 500*sim.NS + 0x20*period, wantCycles: 0xfffffff0, wantAt: 500 * sim.NS,
	}, {
		name: "32-bit stamp", period: period, cycles: 100, at: 500 * sim.NS,
		run:  func(_ *testing.T, g *guestClock) sim.Time { return g.timeOf(164) },
		want: 500*sim.NS + 64*period, wantCycles: 100, wantAt: 500 * sim.NS,
	}, {
		name: "untimed stamp maps to now", cycles: 0, at: 0,
		run:  func(_ *testing.T, g *guestClock) sim.Time { return g.timeOf(12345) },
		want: sim.US, wantCycles: 0, wantAt: 0,
	}})
}

// TestCyclesAt pins the inverse of timeOf that Driver-Kernel grants
// with: the first cycle count at or after a time, so a guest granted to
// a horizon reaches it.
func TestCyclesAt(t *testing.T) {
	g := &guestClock{period: clockPeriod, cycles: 100, at: 500 * sim.NS}
	for _, tc := range []struct {
		t    sim.Time
		want uint64
	}{
		{0, 100}, {500 * sim.NS, 100}, {510 * sim.NS, 101},
		{511 * sim.NS, 102}, {sim.US, 150}, {sim.MaxTime, 100 + uint64((sim.MaxTime-500*sim.NS)/clockPeriod) + 1},
	} {
		if got := g.cyclesAt(tc.t); got != tc.want {
			t.Errorf("cyclesAt(%v) = %d, want %d", tc.t, got, tc.want)
		}
		if tc.t >= g.at && tc.t < sim.MaxTime-clockPeriod {
			if back := g.timeOf(g.cyclesAt(tc.t)); back < tc.t || back >= tc.t+clockPeriod {
				t.Errorf("timeOf(cyclesAt(%v)) = %v, want within one period at or after it", tc.t, back)
			}
		}
	}
}

// TestAdvanceSyncMonotonic pins the anchor GDB-Kernel takes at each
// stop: a stamp in the simulated past anchors at now, and the anchor
// never moves backward as 64-bit stamps pass 2^32.
func TestAdvanceSyncMonotonic(t *testing.T) {
	const period = clockPeriod
	runClockCases(t, []clockCase{{
		// The stamp's own time (500 ns) is returned; the anchor is
		// clamped to now.
		name: "past stamp anchors at now", period: period, cycles: 0, at: 400 * sim.NS,
		run:  func(_ *testing.T, g *guestClock) sim.Time { return g.take(10) },
		want: 500 * sim.NS, wantCycles: 10, wantAt: sim.US,
	}, {
		// Stamps across the 32-bit boundary: the anchor's time never
		// moves backward and its cycles are the last stamp.
		name: "anchor monotonic through a wrap", period: period, cycles: 0, at: 0,
		run: func(t *testing.T, g *guestClock) sim.Time {
			prev := g.at
			for _, stamp := range []uint64{100, 5_000, 0xffffffff, 1<<32 + 3, 1<<32 + 50, 1<<32 + 1<<20} {
				g.take(stamp)
				if g.at < prev {
					t.Fatalf("anchor moved backward: %v -> %v at stamp %#x", prev, g.at, stamp)
				}
				if g.cycles != stamp {
					t.Fatalf("anchor cycles = %#x, want %#x", g.cycles, stamp)
				}
				prev = g.at
			}
			return g.timeOf(g.cycles)
		},
		// The first stamp lands at now; the rest count on from it.
		want: sim.US + (1<<32+1<<20-100)*period, wantCycles: 1<<32 + 1<<20, wantAt: sim.US + (1<<32+1<<20-100)*period,
	}})
}

// TestGuestClock pins the rest of the rule both kernel schemes share:
// GDB-Kernel's 64-bit stamps and the re-anchor when the guest idles.
func TestGuestClock(t *testing.T) {
	const period = clockPeriod
	runClockCases(t, []clockCase{{
		name: "64-bit GDB stamp", period: period, cycles: 1<<33 + 5, at: 2 * sim.US,
		run:  func(_ *testing.T, g *guestClock) sim.Time { return g.take(1<<33 + 305) },
		want: 5 * sim.US, wantCycles: 1<<33 + 305, wantAt: 5 * sim.US,
	}, {
		name: "idle re-anchors at now", period: period, cycles: 7, at: 200 * sim.NS,
		run: func(_ *testing.T, g *guestClock) sim.Time {
			g.idle()
			return g.timeOf(17)
		},
		want: sim.US + 10*period, wantCycles: 7, wantAt: sim.US,
	}})
}

// TestClampedStampsCounted: a stamp whose time lies behind now is
// served at now, and each such clamp counts in cosim.clamped_stops; a
// stamp at or after now counts nothing.
func TestClampedStampsCounted(t *testing.T) {
	k := sim.NewKernel("t")
	defer k.Shutdown()
	advanceKernel(t, k, sim.US)
	reg := obs.NewRegistry()
	g := &guestClock{k: k, period: clockPeriod, clamped: reg.Counter("cosim.clamped_stops")}
	clamps := func() uint64 { return reg.Snapshot().Flatten()["cosim.clamped_stops"] }
	if at := g.notBefore(g.timeOf(100)); at != sim.US || clamps() != 0 {
		t.Fatalf("stamp at now: served at %v with %d clamps, want %v and 0", at, clamps(), sim.US)
	}
	if at := g.notBefore(g.timeOf(99)); at != sim.US || clamps() != 1 {
		t.Fatalf("stamp a cycle behind now: served at %v with %d clamps, want %v and 1", at, clamps(), sim.US)
	}
	g.take(50) // anchors at now, not at the stamp's 500 ns
	if g.at != sim.US || clamps() != 2 {
		t.Fatalf("take of a past stamp anchored at %v with %d clamps, want %v and 2", g.at, clamps(), sim.US)
	}
}

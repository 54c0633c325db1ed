package harness

import (
	"fmt"
	"testing"

	"cosim/internal/asm"
	"cosim/internal/core"
	"cosim/internal/dev"
	"cosim/internal/iss"
	"cosim/internal/rtos"
	"cosim/internal/sim"
)

// driverOutcome is the part of a Driver-Kernel run that depends on spec
// and seed only: the kernel runs each guest up to the next event and
// handles what it sends at the time it sent it, so neither host speed
// nor the transport moves it.
type driverOutcome struct {
	Forwarded, Received, Transfers, Messages, DMIHits, Instructions, Cycles uint64
}

// TestDriverKernelJournalPinned pins the seed-1 outcome and the whole
// transfer history of two Driver-Kernel runs, byte for byte: one CPU on
// the message path, and two CPUs with DMI windows. Each must be the
// same over every transport.
func TestDriverKernelJournalPinned(t *testing.T) {
	for _, tc := range []struct {
		name    string
		p       Params
		want    driverOutcome
		journal string
	}{
		{"1cpu", Params{Scheme: DriverKernel, SimTime: 2 * sim.MS, Delay: 5 * sim.US, Seed: 1},
			driverOutcome{190, 190, 381, 381, 0, 132738, 200000},
			"bc89d9a38c997e8fcce646d90cfa42eb7e8cbf6a74744ec2a289fc7b4a853f2e"},
		{"2cpu-dmi", Params{Scheme: DriverKernel, CPUs: 2, DMI: true, SimTime: 2 * sim.MS, Delay: 5 * sim.US, Seed: 1},
			driverOutcome{466, 466, 932, 0, 934, 273546, 400002},
			"8fba263f826f21243c20b587414c72fc4d50d9860271e5d60bd67b8a8476e529"},
	} {
		for _, tr := range []core.Transport{core.TransportTCP, core.TransportRing, core.TransportPipe} {
			t.Run(tc.name+"/"+tr.Name(), func(t *testing.T) {
				p := tc.p
				p.Transport = tr
				p.Journal = core.NewJournal(0)
				res, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				got := driverOutcome{res.Forwarded, res.Received, res.CoStats.Transfers, res.CoStats.Messages,
					res.CoStats.DMIHits, res.GuestInstructions, res.GuestCycles}
				if got != tc.want {
					t.Errorf("outcome %+v, want %+v", got, tc.want)
				}
				if sum := journalSum(t, p.Journal); sum != tc.journal {
					t.Errorf("journal (%d entries) SHA-256 %s, want %s", p.Journal.Len(), sum, tc.journal)
				}
			})
		}
	}
}

// maxInstrCycles is the most cycles one instruction (or a trap entry)
// costs under the default CPI model.
func maxInstrCycles() uint64 {
	m := iss.DefaultCPI
	return max(m.Default, m.Load, m.Store, m.Mul, m.Div, m.Branch, m.Trap)
}

// causality checks that no guest ran ahead of simulated time by more
// than one instruction: for each CPU, cycles × period ≤ simulated time
// + one instruction's cycles.
func causality(simulated, period sim.Time, cycles []uint64) error {
	for i, n := range cycles {
		if limit := simulated.AddCycles(maxInstrCycles(), period); sim.Time(0).AddCycles(n, period).After(limit) {
			return fmt.Errorf("cpu%d ran %d cycles (%v) in %v of simulated time", i, n, sim.Time(0).AddCycles(n, period), simulated)
		}
	}
	return nil
}

// TestGuestTimeCausality: every scheme keeps each guest's time within
// simulated time, at one and two CPUs, over every transport.
func TestGuestTimeCausality(t *testing.T) {
	for _, scheme := range Schemes {
		for _, cpus := range []int{1, 2} {
			if cpus > 1 && !scheme.SupportsMultiCPU() {
				continue
			}
			for _, tr := range []core.Transport{core.TransportTCP, core.TransportRing, core.TransportPipe} {
				name := fmt.Sprintf("%v/%dcpu/%s", scheme, cpus, tr.Name())
				t.Run(name, func(t *testing.T) {
					res, err := Run(Params{Scheme: scheme, CPUs: cpus, Transport: tr, SimTime: 500 * sim.US, Delay: 5 * sim.US, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					if len(res.CPUCycles) != cpus {
						t.Fatalf("%d per-CPU cycle counts, want %d", len(res.CPUCycles), cpus)
					}
					if err := causality(res.Simulated, CPUPeriod, res.CPUCycles); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// overreach is a seeded defect: a guest that, granted a horizon, runs
// one horizon further.
type overreach struct {
	*dev.Platform
	last uint64
}

func (o *overreach) RunTo(limit uint64) iss.Stop {
	next := limit + (limit - o.last)
	o.last = limit
	return o.Platform.RunTo(next)
}

// TestCausalityCatchesOverreach: the causality check passes an idle
// guest granted to each 1us event and trips on the same guest granted
// one horizon too far.
func TestCausalityCatchesOverreach(t *testing.T) {
	im, err := rtos.Build(asm.Source{Name: "idle.s", Text: "main:\n    wfi\n    j main\n"})
	if err != nil {
		t.Fatal(err)
	}
	const period, end = 10 * sim.NS, 10 * sim.US
	run := func(wrap func(*dev.Platform) core.Guest) []uint64 {
		p := dev.NewPlatform(0, nil)
		if err := im.LoadInto(p.RAM); err != nil {
			t.Fatal(err)
		}
		p.CPU.Reset(im.Entry)
		target, err := core.ConnectDriverTarget(p, core.TransportRing)
		if err != nil {
			t.Fatal(err)
		}
		k := sim.NewKernel("t")
		defer k.Shutdown()
		d, err := core.NewDriverKernel(k, []core.DriverChannel{{Data: target.DataHost, IRQ: target.IRQHost, Guest: wrap(p)}},
			core.DriverKernelOptions{CommonOptions: core.CommonOptions{CPUPeriod: period}})
		if err != nil {
			t.Fatal(err)
		}
		for at := sim.US; at <= end; at += sim.US {
			k.CallAt(at, func() {})
		}
		if err := k.Run(end); err != nil && err != sim.ErrDeadlock {
			t.Fatal(err)
		}
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
		return []uint64{p.CPU.Cycles()}
	}
	if err := causality(end, period, run(func(p *dev.Platform) core.Guest { return p })); err != nil {
		t.Fatalf("a correct grant failed the check: %v", err)
	}
	if err := causality(end, period, run(func(p *dev.Platform) core.Guest { return &overreach{Platform: p} })); err == nil {
		t.Fatal("a guest granted one horizon too far passed the check")
	}
}

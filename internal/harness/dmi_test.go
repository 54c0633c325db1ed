package harness

import (
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

// dmiCells is the memory fast-path ablation axis (benchtab's
// `-ablate dmi` cells).
var dmiCells = []struct {
	name string
	dmi  bool
}{
	{"off", false},
	{"dmi", true},
}

// dmiParams is the bounded-workload configuration the determinism
// assertions need: every source injects a fixed packet count and the
// simulated horizon is generous enough for all of them to complete in
// every cell, so the functional outcome cannot depend on how fast the
// co-simulation path serves accesses — only the wall clock may differ.
func dmiParams(dmi bool) Params {
	return Params{
		Scheme: DriverKernel, Transport: core.TransportRing,
		SimTime: 20 * sim.MS, Delay: 200 * sim.US,
		PacketsPerSource: 10, Seed: 77, CPUs: 2,
		DMI: dmi,
	}
}

// signature is the functional outcome of a run: packet accounting and
// the router's checksum verdicts (Received counts packets whose guest-
// computed checksum validated at the sink; BadContent counts
// mismatches). Identical signatures across ablation cells mean the
// fast path changed only how data moved, not what the model computed.
type signature struct {
	Generated, Offered, InDrops, BadSent     uint64
	Dequeued, Forwarded, Corrupted, OutDrops uint64
	Copies, Received, BadContent, Misrouted  uint64
}

func signatureOf(r *Result) signature {
	return signature{
		Generated: r.Generated, Offered: r.Offered, InDrops: r.InDrops, BadSent: r.BadSent,
		Dequeued: r.Dequeued, Forwarded: r.Forwarded, Corrupted: r.Corrupted, OutDrops: r.OutDrops,
		Copies: r.Copies, Received: r.Received, BadContent: r.BadContent, Misrouted: r.Misrouted,
	}
}

// TestDMIAblationDeterministic runs the two ablation cells at 2 CPUs
// and checks that the memory fast path is functionally invisible: every
// cell produces the same packet signature and clean router checksums.
// The -race builds of this test double as the concurrency check on the
// window grant/reconcile paths.
func TestDMIAblationDeterministic(t *testing.T) {
	var base *signature
	for _, cell := range dmiCells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			res, err := Run(dmiParams(cell.dmi))
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			sig := signatureOf(res)
			if sig.Forwarded == 0 || sig.Forwarded != sig.Generated {
				t.Fatalf("bounded workload did not complete: %+v", sig)
			}
			if sig.BadContent != 0 || sig.Misrouted != 0 || sig.Corrupted != 0 {
				t.Fatalf("router checksum/integrity failures: %+v", sig)
			}
			if base == nil {
				base = &sig
			} else if *base != sig {
				t.Fatalf("cell %s diverged:\n base %+v\n cell %+v", cell.name, *base, sig)
			}
		})
	}
}

// TestDriverKernelRerunBitIdentical reruns the lock-step baseline cell
// and requires the functional signature, every message counter and the
// guests' instruction and cycle totals to repeat exactly: the kernel
// runs the guests in simulated time, so a rerun repeats the run.
func TestDriverKernelRerunBitIdentical(t *testing.T) {
	first, err := Run(dmiParams(false))
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	second, err := Run(dmiParams(false))
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if signatureOf(first) != signatureOf(second) {
		t.Fatalf("signatures diverged across reruns:\n %+v\n %+v", signatureOf(first), signatureOf(second))
	}
	for _, k := range []string{
		"driver.messages", "driver.cpu0.messages", "driver.cpu1.messages",
		"driver.interrupts", "iss.instructions", "iss.cycles",
	} {
		if v, w := first.Counters[k], second.Counters[k]; v != w {
			t.Errorf("counter %s: %d then %d", k, v, w)
		}
	}
	if first.GuestInstructions != second.GuestInstructions || first.GuestCycles != second.GuestCycles {
		t.Errorf("guests ran %d instructions in %d cycles, then %d in %d",
			first.GuestInstructions, first.GuestCycles, second.GuestInstructions, second.GuestCycles)
	}
}

// TestDMIMessageReductionAndCounters is the fast path's effectiveness
// and accounting test: with windows granted, the per-packet guest
// accesses stop crossing the transport, the hit/revocation counters
// fire, and the per-CPU counters reconcile with the aggregates.
func TestDMIMessageReductionAndCounters(t *testing.T) {
	off, err := Run(dmiParams(false))
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	on, err := Run(dmiParams(true))
	if err != nil {
		t.Fatalf("dmi run: %v", err)
	}

	offMsgs := off.Counters["driver.messages"]
	onMsgs := on.Counters["driver.messages"]
	if offMsgs == 0 {
		t.Fatal("baseline exchanged no driver messages")
	}
	// The acceptance bar is a >=30% reduction; windowed FIFO traffic
	// actually eliminates the per-packet messages outright.
	if onMsgs > offMsgs*7/10 {
		t.Fatalf("messages %d -> %d: reduction below 30%%", offMsgs, onMsgs)
	}

	hits := on.Counters["driver.dmi_hits"]
	if hits == 0 {
		t.Fatal("no DMI hits with windows granted")
	}
	if on.CoStats.DMIHits != hits {
		t.Fatalf("Stats.DMIHits %d != counter %d", on.CoStats.DMIHits, hits)
	}
	if revs := on.Counters["driver.dmi_revocations"]; revs == 0 {
		t.Fatal("detach revoked no windows")
	}
	if offHits := off.Counters["driver.dmi_hits"]; offHits != 0 {
		t.Fatalf("baseline counted %d DMI hits with the fast path off", offHits)
	}

	// Per-CPU counters reconcile with the aggregates (the CI smoke step
	// asserts the same identity via jq).
	for _, metric := range []string{"dmi_hits", "dmi_misses", "dmi_revocations"} {
		var sum uint64
		for cpu := 0; cpu < 2; cpu++ {
			sum += on.Counters[perCPUName(cpu, metric)]
		}
		if agg := on.Counters["driver."+metric]; sum != agg {
			t.Errorf("per-CPU %s sum %d != aggregate %d", metric, sum, agg)
		}
	}
}

// perCPUName mirrors the driver's per-CPU metric naming.
func perCPUName(cpu int, metric string) string {
	return "driver.cpu" + string(rune('0'+cpu)) + "." + metric
}

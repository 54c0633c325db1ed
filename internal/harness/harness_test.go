package harness

import (
	"errors"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"cosim/internal/core"
	"cosim/internal/sim"
)

func TestParseScheme(t *testing.T) {
	cases := map[string]Scheme{
		"gdb-wrapper":   GDBWrapper,
		"wrapper":       GDBWrapper,
		"GDB-Kernel":    GDBKernel,
		"kernel":        GDBKernel,
		"driver-kernel": DriverKernel,
		"Driver":        DriverKernel,
	}
	for in, want := range cases {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Errorf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("bogus"); err == nil {
		t.Error("ParseScheme(bogus) succeeded")
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range Schemes {
		if strings.HasPrefix(s.String(), "Scheme(") {
			t.Errorf("scheme %d has no name", int(s))
		}
		back, err := ParseScheme(s.String())
		if err != nil || back != s {
			t.Errorf("round trip of %v failed", s)
		}
	}
}

func TestRunConservation(t *testing.T) {
	// Flow conservation: generated = offered + input drops;
	// dequeued = forwarded + corrupted + output drops;
	// received <= forwarded (some may be in flight at sim end).
	res, err := Run(Params{
		Scheme:    GDBKernel,
		Transport: core.TransportPipe,
		SimTime:   2 * sim.MS,
		Delay:     40 * sim.US,
		ErrorRate: 0.2,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != res.Offered+res.InDrops {
		t.Errorf("input conservation: %d != %d + %d", res.Generated, res.Offered, res.InDrops)
	}
	// At most one packet can be in service (awaiting its checksum) when
	// the simulation ends.
	inService := res.Dequeued - (res.Forwarded + res.Corrupted + res.OutDrops)
	if inService > 1 {
		t.Errorf("router conservation: %d dequeued vs %d+%d+%d completed",
			res.Dequeued, res.Forwarded, res.Corrupted, res.OutDrops)
	}
	if res.Received > res.Forwarded {
		t.Errorf("received %d > forwarded %d", res.Received, res.Forwarded)
	}
	if res.Corrupted == 0 || res.BadSent == 0 {
		t.Errorf("error injection did not exercise the drop path: sent %d caught %d",
			res.BadSent, res.Corrupted)
	}
	if res.Corrupted > res.BadSent {
		t.Errorf("more corrupted caught (%d) than injected (%d)", res.Corrupted, res.BadSent)
	}
}

func TestCorruptionAlwaysCaught(t *testing.T) {
	// With bounded traffic, every injected corruption must be caught by
	// the guest checksum by the end of the run.
	res, err := Run(Params{
		Scheme:           DriverKernel,
		Transport:        core.TransportPipe,
		SimTime:          5 * sim.MS,
		Delay:            100 * sim.US,
		ErrorRate:        0.3,
		PacketsPerSource: 8,
		Seed:             3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BadSent == 0 {
		t.Skip("no corruptions drawn at this seed")
	}
	if res.Corrupted != res.BadSent {
		t.Fatalf("caught %d of %d injected corruptions", res.Corrupted, res.BadSent)
	}
	if res.BadContent != 0 {
		t.Fatalf("%d corrupt packets reached a consumer", res.BadContent)
	}
}

func TestTable1SmallRun(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 sweep is slow")
	}
	simTimes := Table1SimTimes(false)
	rows, err := Table1Rows(simTimes, RunAll(Table1Scenarios(simTimes, Params{
		Transport: core.TransportPipe,
		Delay:     50 * sim.US,
		Seed:      1,
	}), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sb strings.Builder
	PrintTable1(&sb, simTimes, rows)
	out := sb.String()
	// One row per scheme and one speedup row per kernel scheme, each
	// led by its 14-column label.
	for _, want := range []string{"GDB-Wrapper", "GDB-Kernel", "Driver-Kernel", "GDB-Kernel spd", "Driver-Kernel spd"} {
		if !strings.Contains(out, fmt.Sprintf("\n%-14s ", want)) {
			t.Fatalf("table output missing the %q row:\n%s", want, out)
		}
	}
}

func TestDeterministicTrafficAcrossSchemes(t *testing.T) {
	// Same seed, same delay: every scheme must see the same generated
	// traffic (the schemes differ in service, not in the workload).
	var gen []uint64
	for _, s := range Schemes {
		res, err := Run(Params{
			Scheme:    s,
			Transport: core.TransportPipe,
			SimTime:   sim.MS,
			Delay:     50 * sim.US,
			Seed:      21,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen = append(gen, res.Generated)
	}
	if gen[0] != gen[1] || gen[1] != gen[2] {
		t.Fatalf("generated traffic differs across schemes: %v", gen)
	}
}

func TestCountLoC(t *testing.T) {
	r := CountLoC()
	if r.GDBAppLines == 0 || r.DrvAppLines == 0 || r.DriverLines == 0 || r.KernelLines == 0 {
		t.Fatalf("LoC report has zeros: %+v", r)
	}
	// §5: the Driver-Kernel software side is roughly an order of
	// magnitude larger (the paper reports 9x).
	if r.SWSideFactor < 3 {
		t.Fatalf("SW-side factor %.1f implausibly low", r.SWSideFactor)
	}
	// The kernel side: Driver-Kernel adds code over GDB-Kernel.
	if r.GDBKernelLines == 0 || r.DriverKernelLines <= r.GDBKernelLines || r.KernelSidePct <= 0 {
		t.Fatalf("kernel-side row implausible: %+v", r)
	}
	var sb strings.Builder
	PrintLoC(&sb, r)
	if !strings.Contains(sb.String(), "overhead factor") || !strings.Contains(sb.String(), "Kernel-side overhead") {
		t.Fatalf("LoC print incomplete:\n%s", sb.String())
	}
}

// TestExperimentsC1RowIsCurrent keeps the §5 code-size table in
// EXPERIMENTS.md equal to what `benchtab -exp loc` prints, so a stale
// C1 number fails the test suite.
func TestExperimentsC1RowIsCurrent(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	r := CountLoC()
	rows := []struct {
		name string
		re   *regexp.Regexp
		want []string
	}{
		{
			"software",
			regexp.MustCompile(`(?m)^\| software \(guest\) \| (\d+) lines [^|]*\| (\d+) lines \(app (\d+) \+ driver (\d+)\) \| \*\*([\d.]+)×\*\*`),
			[]string{
				strconv.Itoa(r.GDBAppLines), strconv.Itoa(r.DrvAppLines + r.DriverLines),
				strconv.Itoa(r.DrvAppLines), strconv.Itoa(r.DriverLines),
				fmt.Sprintf("%.1f", r.SWSideFactor),
			},
		},
		{
			"kernel-side",
			regexp.MustCompile(`(?m)^\| kernel-side scheme code \(Go\) \| .gdbkernel\.go. (\d+) lines \| .driverkernel\.go. (\d+) lines \| \*\*([+-]\d+) %\*\*`),
			[]string{
				strconv.Itoa(r.GDBKernelLines), strconv.Itoa(r.DriverKernelLines),
				fmt.Sprintf("%+.0f", r.KernelSidePct),
			},
		},
	}
	for _, row := range rows {
		m := row.re.FindSubmatch(doc)
		if m == nil {
			t.Errorf("EXPERIMENTS.md: no %s row in the §5 table", row.name)
			continue
		}
		for i, want := range row.want {
			if got := string(m[i+1]); got != want {
				t.Errorf("EXPERIMENTS.md §5 %s row: field %d is %s, benchtab -exp loc gives %s", row.name, i+1, got, want)
			}
		}
	}
}

func TestVCDTraceOutput(t *testing.T) {
	var sb strings.Builder
	_, err := Run(Params{
		Scheme:    GDBKernel,
		Transport: core.TransportPipe,
		SimTime:   sim.MS,
		Delay:     50 * sim.US,
		Seed:      1,
		Trace:     &sb,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"$timescale", "in0_occupancy", "$enddefinitions"} {
		if !strings.Contains(out, want) {
			t.Fatalf("VCD missing %q", want)
		}
	}
}

func TestMultiCPUScalesThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-CPU sweep is slow")
	}
	// At a saturating inter-packet delay, doubling the checksum CPUs
	// should raise the forwarded fraction substantially — the
	// multi-processor SoC configuration of the paper's title.
	run := func(cpus int) *Result {
		res, err := Run(Params{
			Scheme:    GDBKernel,
			Transport: core.TransportPipe,
			SimTime:   2 * sim.MS,
			Delay:     3 * sim.US, // saturates a single CPU
			CPUs:      cpus,
			Seed:      8,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := run(1)
	two := run(2)
	t.Logf("1 CPU: %.1f%% forwarded; 2 CPUs: %.1f%%", one.ForwardedPct(), two.ForwardedPct())
	if one.ForwardedPct() > 90 {
		t.Skip("single CPU not saturated on this host; scaling not observable")
	}
	if two.Forwarded < one.Forwarded+one.Forwarded/2 {
		t.Fatalf("2 CPUs forwarded %d, want >= 1.5x single-CPU %d", two.Forwarded, one.Forwarded)
	}
}

func TestMultiCPURejectedForGDBWrapper(t *testing.T) {
	// The lock-step wrapper owns exactly one RSP connection; asking it
	// for a multi-processor SoC must fail up front with a typed error.
	_, err := Run(Params{Scheme: GDBWrapper, CPUs: 2, SimTime: sim.MS})
	if err == nil {
		t.Fatal("multi-CPU accepted for GDB-Wrapper")
	}
	if !errors.Is(err, ErrSingleCPUScheme) {
		t.Fatalf("error %v is not ErrSingleCPUScheme", err)
	}
	if !strings.Contains(err.Error(), "GDB-Wrapper") {
		t.Fatalf("error %q does not name the scheme", err)
	}
}

func TestSupportsMultiCPU(t *testing.T) {
	if GDBWrapper.SupportsMultiCPU() {
		t.Error("GDB-Wrapper claims multi-CPU support")
	}
	for _, s := range []Scheme{GDBKernel, DriverKernel} {
		if !s.SupportsMultiCPU() {
			t.Errorf("%v does not claim multi-CPU support", s)
		}
	}
}

func TestDriverKernelMultiCPU(t *testing.T) {
	// The paper's title configuration: a multi-processor SoC under the
	// Driver-Kernel scheme, one RTOS guest per CPU on its own channel
	// pair. The run must preserve all integrity invariants and show
	// traffic on both CPUs' channels.
	res, err := Run(Params{
		Scheme:    DriverKernel,
		Transport: core.TransportPipe,
		SimTime:   2 * sim.MS,
		Delay:     100 * sim.US,
		CPUs:      2,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Forwarded == 0 {
		t.Fatal("no packets forwarded")
	}
	if res.BadContent != 0 || res.Misrouted != 0 || res.Corrupted != 0 {
		t.Fatalf("integrity violated: %+v", res)
	}
	for _, name := range []string{"driver.cpu0.messages", "driver.cpu1.messages"} {
		if res.Counters[name] == 0 {
			t.Errorf("counter %s is zero: both CPUs should carry traffic (have %v)",
				name, res.Counters)
		}
	}
	// Each CPU reports the per-CPU metric set README documents, and
	// each per-CPU metric's aggregate equals its sum over the CPUs.
	sums := map[string]uint64{}
	for name, v := range res.Counters {
		var cpu int
		var metric string
		if _, err := fmt.Sscanf(name, "driver.cpu%d.%s", &cpu, &metric); err == nil {
			sums[metric] += v
		}
	}
	for _, metric := range []string{"messages", "interrupts", "pending_reads", "dmi_hits", "dmi_misses", "dmi_revocations"} {
		if _, ok := sums[metric]; !ok {
			t.Errorf("no driver.cpuN.%s metric", metric)
		}
	}
	for metric, sum := range sums {
		if agg, ok := res.Counters["driver."+metric]; !ok || agg != sum {
			t.Errorf("aggregate driver.%s = %d (reported: %v), per-CPU sum = %d", metric, agg, ok, sum)
		}
	}
}

// TestDriverKernelVisitsEventPointsOnly: Driver-Kernel has neither a
// clock nor a poll grid. It visits the model's event points and the
// times its guests send, at most a quarter of the edges of the 100ns
// clock, and grants the guests once per visit.
func TestDriverKernelVisitsEventPointsOnly(t *testing.T) {
	const edges = uint64(2 * sim.MS / (100 * sim.NS))
	for _, cpus := range []int{1, 2} {
		res, err := Run(Params{
			Scheme:    DriverKernel,
			Transport: core.TransportRing,
			SimTime:   sim.MS,
			CPUs:      cpus,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Forwarded == 0 || res.Simulated != sim.MS {
			t.Fatalf("%d CPUs: forwarded %d, ended at %v; want traffic and 1ms", cpus, res.Forwarded, res.Simulated)
		}
		cycles := counter(t, res.Counters, "sim.cycles")
		if cycles*4 > edges {
			t.Errorf("%d CPUs: sim.cycles = %d, above a quarter of the clock's %d edges", cpus, cycles, edges)
		}
		if polls := counter(t, res.Counters, "driver.polls"); polls != cycles {
			t.Errorf("%d CPUs: driver.polls = %d, want one grant per visited time point, %d", cpus, polls, cycles)
		}
	}
}

func TestDriverKernelMultiCPUDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated multi-CPU runs are slow")
	}
	run := func() *Result {
		res, err := Run(Params{
			Scheme:    DriverKernel,
			Transport: core.TransportPipe,
			SimTime:   sim.MS,
			Delay:     100 * sim.US,
			CPUs:      2,
			Seed:      9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Generated != b.Generated || a.Forwarded != b.Forwarded || a.Simulated != b.Simulated {
		t.Fatalf("multi-CPU run not deterministic: gen %d/%d fwd %d/%d sim %v/%v",
			a.Generated, b.Generated, a.Forwarded, b.Forwarded, a.Simulated, b.Simulated)
	}
}

func TestMulticastTraffic(t *testing.T) {
	res, err := Run(Params{
		Scheme:           GDBKernel,
		Transport:        core.TransportPipe,
		SimTime:          10 * sim.MS,
		Delay:            200 * sim.US,
		MulticastRate:    0.5,
		PacketsPerSource: 10,
		Seed:             13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BadContent != 0 || res.Misrouted != 0 {
		t.Fatalf("integrity violated with multicast: %+v", res)
	}
	if res.Copies <= res.Forwarded {
		t.Fatalf("copies %d <= forwarded %d: no multicast expansion happened",
			res.Copies, res.Forwarded)
	}
	if res.Received != res.Copies {
		t.Fatalf("received %d != copies %d", res.Received, res.Copies)
	}
	// The traffic ends long before SimTime, and GDB-Kernel has no poll
	// grid: the run must still reach its end.
	if res.Simulated != 10*sim.MS {
		t.Fatalf("run ended at %v, want 10ms", res.Simulated)
	}
}

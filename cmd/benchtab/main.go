// benchtab regenerates the paper's evaluation artifacts: Table 1
// (co-simulation wall-clock time per scheme), Figure 7 (% packets
// forwarded vs inter-packet delay), and the §5 code-size comparison.
//
// Usage:
//
//	benchtab -exp table1|figure7|loc|all [-full] [-times 1ms,5ms]
//	         [-scheme NAME] [-transport tcp|ring|pipe] [-ablate dmi]
//	         [-parallel N] [-json] [-server URL] [run flags]
//
// The run flags (-delay, -seed, -cpus, -dmi, ...) are cosim's: both
// commands bind them through harness.Spec.RegisterFlags.
//
// -full uses the paper-scale simulated durations (slow); the default
// uses scaled-down durations with identical workload structure, and
// -times overrides them outright (CI smoke runs use -times 1ms).
// -scheme restricts the sweep to a single scheme; the folded
// table/figure artifacts need the full sweep, so a filtered run emits
// only the per-run records.
// -transport selects the IPC backend; a comma list (or "all") sweeps
// several backends in one invocation, tagging each scenario with
// /tr=NAME and emitting per-run records only (the folded artifacts are
// single-transport by construction).
// -cpus sweeps a multi-processor SoC: the router's checksum work is
// partitioned across N guest CPUs. Only gdb-kernel and driver-kernel
// drive more than one CPU, so a multi-CPU Table 1 sweep drops the
// GDB-Wrapper baseline and reports per-run records.
// -dmi turns on the Driver-Kernel memory fast path (direct memory
// windows; see the README's "Memory fast path" section). -ablate dmi
// sweeps that axis instead: every driver-kernel scenario runs once with
// and once without the fast path, tagged /dmi=0|1, and the report
// carries per-run records only.
// -parallel runs the experiment sweep on N workers: every run owns its
// kernel, ISS and sockets, so scheme results are identical to the
// sequential sweep — only total wall time drops. -json replaces the
// human-readable tables with a machine-readable metrics report (one
// record per run, plus the folded table/figure data).
// -server URL switches benchtab into a load driver for a running
// cosimd: the same scenario matrix is POSTed as session specs with
// -parallel concurrent clients (absorbing 429 backpressure via
// Retry-After), each session is polled to a terminal state, and the
// report carries per-session submit/queue/run/total latencies plus a
// throughput summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cosim/internal/harness"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// report is the -json output schema.
type report struct {
	Experiment  string             `json:"experiment"`
	Transport   string             `json:"transport"`
	Parallel    int                `json:"parallel"`
	GeneratedAt string             `json:"generated_at"`
	Table1      []table1JSON       `json:"table1,omitempty"`
	Figure7     []figure7JSON      `json:"figure7,omitempty"`
	Runs        []harness.Metrics  `json:"runs,omitempty"`
	LoC         *harness.LoCReport `json:"loc,omitempty"`

	// Server-load mode (-server URL): per-session records and the
	// aggregate throughput/latency summary.
	Server     string          `json:"server,omitempty"`
	Sessions   []serverSession `json:"sessions,omitempty"`
	ServerLoad *serverSummary  `json:"server_load,omitempty"`
}

type table1JSON struct {
	Scheme string  `json:"scheme"`
	WallNS []int64 `json:"wall_ns"` // one per simulated duration
}

type figure7JSON struct {
	Delay        string  `json:"delay"`
	GDBKernelPct float64 `json:"gdb_kernel_pct"`
	DriverPct    float64 `json:"driver_kernel_pct"`
	GDBLatPS     uint64  `json:"gdb_kernel_latency_ps"`
	DriverLatPS  uint64  `json:"driver_kernel_latency_ps"`
}

// options is benchtab's command line.
type options struct {
	exp, times, scheme, transport, ablate, server string
	full, jsonOut                                 bool
	parallel                                      int
	// The run flags fill a wire-form Spec, as cosim's do. benchtab
	// sweeps schemes itself: every scenario overwrites the placeholder
	// scheme.
	spec harness.Spec
}

// register binds the command line to fs.
func (o *options) register(fs *flag.FlagSet) {
	fs.StringVar(&o.exp, "exp", "all", "experiment: table1, figure7, loc, all")
	fs.BoolVar(&o.full, "full", false, "paper-scale simulated durations (slow)")
	fs.StringVar(&o.times, "times", "", "comma-separated simulated durations for Table 1 (overrides -full)")
	fs.StringVar(&o.scheme, "scheme", "", "restrict the sweep to one scheme (default: all)")
	fs.StringVar(&o.transport, "transport", "tcp", `IPC transport: tcp, ring or pipe; a comma list or "all" sweeps several`)
	o.spec = harness.Spec{Scheme: "gdb-kernel"}
	o.spec.RegisterFlags(fs)
	fs.Lookup("delay").Usage = "inter-packet delay per source for Table 1 (Figure 7 sweeps its own)"
	fs.IntVar(&o.parallel, "parallel", 1, "experiment sweep workers (1 = sequential)")
	fs.BoolVar(&o.jsonOut, "json", false, "emit a machine-readable metrics report")
	fs.StringVar(&o.ablate, "ablate", "", `cross-sweep driver-kernel axes: "dmi"`)
	fs.StringVar(&o.server, "server", "", "drive a running cosimd at this base URL instead of simulating in-process")
}

func main() {
	var o options
	o.register(flag.CommandLine)
	flag.Parse()

	sel := harness.Scheme(-1) // sentinel: no filter
	if o.scheme != "" {
		var err error
		if sel, err = harness.ParseScheme(o.scheme); err != nil {
			fatal(err)
		}
	}
	trs, err := parseTransports(o.transport)
	if err != nil {
		fatal(err)
	}
	base, err := o.spec.Params()
	if err != nil {
		fatal(err)
	}
	ablateDMI, err := parseAblate(o.ablate)
	if err != nil {
		fatal(err)
	}
	if base.CPUs > 1 && sel >= 0 && !sel.SupportsMultiCPU() {
		fatal(fmt.Errorf("scheme %v drives a single CPU; -cpus %d needs gdb-kernel or driver-kernel", sel, base.CPUs))
	}

	simTimes := []sim.Time{2 * sim.MS, 10 * sim.MS, 50 * sim.MS}
	if o.full {
		// The paper's Table 1 columns: 1000, 10000, 100000 ms simulated.
		simTimes = []sim.Time{1000 * sim.MS, 10000 * sim.MS, 100000 * sim.MS}
	}
	if o.times != "" {
		simTimes = nil
		for _, s := range strings.Split(o.times, ",") {
			st, err := sim.ParseTime(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			simTimes = append(simTimes, st)
		}
	}

	names := make([]string, len(trs))
	for i, tr := range trs {
		names[i] = tr.Name()
	}
	rep := &report{
		Experiment:  o.exp,
		Transport:   strings.Join(names, ","),
		Parallel:    o.parallel,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	if o.server != "" {
		rep.Server = o.server
		if err := runServerLoad(rep, o.server, o.exp, simTimes, base, sel, trs, o.parallel, o.jsonOut); err != nil {
			// Emit the partial report before dying so a failed load run
			// still leaves its evidence.
			if o.jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				_ = enc.Encode(rep)
			}
			fatal(err)
		}
	} else {
		switch o.exp {
		case "table1":
			runTable1(rep, simTimes, base, sel, trs, ablateDMI, o.parallel, o.jsonOut)
		case "figure7":
			runFigure7(rep, base, sel, trs, ablateDMI, o.parallel, o.jsonOut)
		case "loc":
			runLoC(rep, o.jsonOut)
		case "all":
			runTable1(rep, simTimes, base, sel, trs, ablateDMI, o.parallel, o.jsonOut)
			sep(o.jsonOut)
			runFigure7(rep, base, sel, trs, ablateDMI, o.parallel, o.jsonOut)
			sep(o.jsonOut)
			runLoC(rep, o.jsonOut)
		default:
			fatal(fmt.Errorf("unknown experiment %q", o.exp))
		}
	}

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
	}
}

func sep(jsonOut bool) {
	if !jsonOut {
		fmt.Println()
	}
}

// parseTransports resolves the -transport flag value: one backend name,
// a comma list, or "all".
func parseTransports(arg string) ([]transport.Transport, error) {
	if strings.TrimSpace(strings.ToLower(arg)) == "all" {
		return transport.All(), nil
	}
	var trs []transport.Transport
	for _, name := range strings.Split(arg, ",") {
		tr, err := transport.Parse(name)
		if err != nil {
			return nil, err
		}
		trs = append(trs, tr)
	}
	if len(trs) == 0 {
		return nil, fmt.Errorf("empty -transport value")
	}
	return trs, nil
}

// parseAblate resolves the -ablate flag value, a comma list of the
// driver-kernel axes to cross-sweep; "dmi" is the only axis, so the
// result is whether it was named.
func parseAblate(arg string) (dmi bool, err error) {
	if strings.TrimSpace(arg) == "" {
		return false, nil
	}
	for _, f := range strings.Split(arg, ",") {
		if strings.TrimSpace(strings.ToLower(f)) != "dmi" {
			return false, fmt.Errorf("unknown -ablate axis %q (want dmi)", f)
		}
	}
	return true, nil
}

// expandDMI runs every driver-kernel scenario once without and once
// with the memory fast path, tagging each cell /dmi=0|1. Schemes that
// ignore the fast path keep their single base cell: re-running them per
// cell would only duplicate identical measurements.
func expandDMI(scens []harness.Scenario) []harness.Scenario {
	var out []harness.Scenario
	for _, sc := range scens {
		if sc.Params.Scheme != harness.DriverKernel {
			out = append(out, sc)
			continue
		}
		for i, dv := range []bool{false, true} {
			cell := sc
			cell.Params.DMI = dv
			cell.Name += fmt.Sprintf("/dmi=%d", i)
			out = append(out, cell)
		}
	}
	return out
}

// tagTransport suffixes scenario names with /tr=NAME so records from a
// multi-transport sweep stay distinguishable.
func tagTransport(scens []harness.Scenario, tr transport.Transport) []harness.Scenario {
	for i := range scens {
		scens[i].Name += "/tr=" + tr.Name()
	}
	return scens
}

func runTable1(rep *report, simTimes []sim.Time, base harness.Params, sel harness.Scheme, trs []transport.Transport, ablateDMI bool, workers int, jsonOut bool) {
	multiTr := len(trs) > 1
	for _, tr := range trs {
		b := base
		b.Transport = tr
		scens := filterScenarios(harness.Table1Scenarios(simTimes, b), sel)
		scens = filterMultiCPU(scens, b.CPUs)
		if multiTr {
			scens = tagTransport(scens, tr)
		}
		if ablateDMI {
			scens = expandDMI(scens)
		}
		outs := harness.RunAll(scens, workers)
		collectRuns(rep, outs)
		if sel >= 0 || b.CPUs > 1 || multiTr || ablateDMI {
			// The folded table needs every scheme's column in exact
			// sweep order; a filtered, multi-CPU (which drops the
			// single-CPU GDB-Wrapper baseline), multi-transport or
			// ablation sweep reports per-run records only.
			if err := harness.FirstError(outs); err != nil {
				fatal(err)
			}
			if !jsonOut {
				printRuns(outs)
			}
			continue
		}
		rows, err := harness.Table1Rows(simTimes, outs)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			tj := table1JSON{Scheme: r.Scheme.String()}
			for _, w := range r.Wall {
				tj.WallNS = append(tj.WallNS, w.Nanoseconds())
			}
			rep.Table1 = append(rep.Table1, tj)
		}
		if !jsonOut {
			harness.PrintTable1(os.Stdout, simTimes, rows)
		}
	}
}

func runFigure7(rep *report, base harness.Params, sel harness.Scheme, trs []transport.Transport, ablateDMI bool, workers int, jsonOut bool) {
	delays := []sim.Time{5 * sim.US, 10 * sim.US, 20 * sim.US, 30 * sim.US, 50 * sim.US, 100 * sim.US}
	base.SimTime = 2 * sim.MS
	multiTr := len(trs) > 1
	for _, tr := range trs {
		b := base
		b.Transport = tr
		scens := filterScenarios(harness.Figure7Scenarios(delays, b), sel)
		if multiTr {
			scens = tagTransport(scens, tr)
		}
		if ablateDMI {
			scens = expandDMI(scens)
		}
		outs := harness.RunAll(scens, workers)
		collectRuns(rep, outs)
		if sel >= 0 || multiTr || ablateDMI {
			if err := harness.FirstError(outs); err != nil {
				fatal(err)
			}
			if !jsonOut {
				printRuns(outs)
			}
			continue
		}
		points, err := harness.Figure7Points(delays, outs)
		if err != nil {
			fatal(err)
		}
		for _, p := range points {
			rep.Figure7 = append(rep.Figure7, figure7JSON{
				Delay:        p.Delay.String(),
				GDBKernelPct: p.GDBKernelPct,
				DriverPct:    p.DriverPct,
				GDBLatPS:     uint64(p.GDBLat),
				DriverLatPS:  uint64(p.DriverLat),
			})
		}
		if !jsonOut {
			harness.PrintFigure7(os.Stdout, points)
		}
	}
}

func runLoC(rep *report, jsonOut bool) {
	loc := harness.CountLoC()
	rep.LoC = &loc
	if !jsonOut {
		harness.PrintLoC(os.Stdout, loc)
	}
}

func collectRuns(rep *report, outs []harness.RunOutcome) {
	for _, o := range outs {
		if o.Result != nil {
			rep.Runs = append(rep.Runs, o.Result.Metrics())
		}
	}
}

// filterScenarios keeps only scenarios of the selected scheme; a
// negative selector (the flag's default) keeps the full sweep.
func filterScenarios(scens []harness.Scenario, sel harness.Scheme) []harness.Scenario {
	if sel < 0 {
		return scens
	}
	var kept []harness.Scenario
	for _, sc := range scens {
		if sc.Params.Scheme == sel {
			kept = append(kept, sc)
		}
	}
	return kept
}

// filterMultiCPU drops schemes that cannot drive a multi-processor
// guest when the sweep asks for more than one CPU.
func filterMultiCPU(scens []harness.Scenario, cpus int) []harness.Scenario {
	if cpus <= 1 {
		return scens
	}
	var kept []harness.Scenario
	for _, sc := range scens {
		if sc.Params.Scheme.SupportsMultiCPU() {
			kept = append(kept, sc)
		}
	}
	return kept
}

// printRuns is the human-readable form of a filtered sweep: one line
// per run instead of the folded table.
func printRuns(outs []harness.RunOutcome) {
	for _, o := range outs {
		if o.Result == nil {
			continue
		}
		fmt.Printf("%-36s wall=%-12v forwarded=%.1f%%\n",
			o.Scenario.Name, o.Result.Wall, o.Result.ForwardedPct())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchtab:", err)
	os.Exit(1)
}

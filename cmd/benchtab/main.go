// benchtab regenerates the paper's evaluation artifacts: Table 1
// (co-simulation wall-clock time per scheme), Figure 7 (% packets
// forwarded vs inter-packet delay), and the §5 code-size comparison.
//
// Usage:
//
//	benchtab -exp table1|figure7|loc|all [-full] [-times 1ms,5ms]
//	         [-scheme NAME] [-cpus N] [-transport tcp|unix|ring|pipe]
//	         [-dmi] [-quantum DUR] [-ablate dmi,quantum]
//	         [-parallel N] [-json] [-server URL]
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
// windows; see the README's "Memory fast path" section). -quantum sets
// the Driver-Kernel
// temporal-decoupling quantum (see the README's "Temporal decoupling"
// section); empty or zero keeps per-cycle lock-step. -ablate
// cross-sweeps those axes instead: every driver-kernel scenario runs
// once per cell of the cross product, tagged /dmi=0|1 and /q=DUR, and
// the report carries per-run records only — the BENCH_*_dmi.json
// evidence comes from `-ablate dmi -json`,
// the BENCH_*_quantum.json evidence from `-ablate quantum -json`. The
// quantum axis sweeps {0, -quantum} when -quantum is set, and a default
// {0, 1x, 10x} of the 10ns default CPU period otherwise.
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
// throughput summary — the BENCH_*_cosimd.json baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/sim"
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

func main() {
	exp := flag.String("exp", "all", "experiment: table1, figure7, loc, all")
	full := flag.Bool("full", false, "paper-scale simulated durations (slow)")
	times := flag.String("times", "", "comma-separated simulated durations for Table 1 (overrides -full)")
	sel := harness.Scheme(-1) // sentinel: no filter
	flag.Var(&sel, "scheme", "restrict the sweep to one scheme (default: all)")
	transport := flag.String("transport", "tcp", `IPC transport: tcp, unix, ring or pipe; a comma list or "all" sweeps several`)
	delay := flag.String("delay", "20us", "inter-packet delay for Table 1")
	seed := flag.Int64("seed", 1, "traffic seed")
	cpus := flag.Int("cpus", 1, "checksum CPUs servicing the router (gdb-kernel and driver-kernel)")
	parallel := flag.Int("parallel", 1, "experiment sweep workers (1 = sequential)")
	jsonOut := flag.Bool("json", false, "emit a machine-readable metrics report")
	noDC := flag.Bool("nodecodecache", false, "disable the ISS predecoded-instruction cache (ablation baseline)")
	dmi := flag.Bool("dmi", false, "grant driver-kernel guests direct memory windows (memory fast path)")
	quantum := flag.String("quantum", "", "driver-kernel temporal-decoupling quantum (duration; empty or 0 = per-cycle lock-step)")
	ablate := flag.String("ablate", "", `cross-sweep driver-kernel axes: comma list of "dmi", "quantum"`)
	serverURL := flag.String("server", "", "drive a running cosimd at this base URL instead of simulating in-process")
	flag.Parse()

	trs, err := parseTransports(*transport)
	if err != nil {
		fatal(err)
	}
	// The scalar flags funnel through the wire-form Spec — the same
	// validated request shape a cosimd session POST carries. benchtab
	// sweeps schemes itself, so the base spec carries a placeholder
	// scheme that every scenario overwrites.
	baseSpec := harness.Spec{Scheme: "gdb-kernel", Delay: *delay, Seed: *seed, CPUs: *cpus, NoDecodeCache: *noDC, DMI: *dmi, Quantum: *quantum}
	base, err := baseSpec.Params()
	if err != nil {
		fatal(err)
	}
	// The quantum ablation axis sweeps {lock-step, -quantum} when a
	// quantum was given, so the flag and the axis compose.
	abl, err := parseAblate(*ablate, base.Quantum)
	if err != nil {
		fatal(err)
	}
	if *cpus > 1 {
		if sel >= 0 && !sel.SupportsMultiCPU() {
			fatal(fmt.Errorf("scheme %v drives a single CPU; -cpus %d needs gdb-kernel or driver-kernel", sel, *cpus))
		}
	}

	simTimes := []sim.Time{2 * sim.MS, 10 * sim.MS, 50 * sim.MS}
	if *full {
		// The paper's Table 1 columns: 1000, 10000, 100000 ms simulated.
		simTimes = []sim.Time{1000 * sim.MS, 10000 * sim.MS, 100000 * sim.MS}
	}
	if *times != "" {
		simTimes = nil
		for _, s := range strings.Split(*times, ",") {
			st, err := sim.ParseTime(strings.TrimSpace(s))
			if err != nil {
				fatal(err)
			}
			simTimes = append(simTimes, st)
		}
	}

	names := make([]string, len(trs))
	for i, tr := range trs {
		names[i] = core.TransportName(tr)
	}
	rep := &report{
		Experiment:  *exp,
		Transport:   strings.Join(names, ","),
		Parallel:    *parallel,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	if *serverURL != "" {
		rep.Server = *serverURL
		if err := runServerLoad(rep, *serverURL, *exp, simTimes, base, sel, trs, *parallel, *jsonOut); err != nil {
			// Emit the partial report before dying so a failed load run
			// still leaves its evidence.
			if *jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				_ = enc.Encode(rep)
			}
			fatal(err)
		}
	} else {
		switch *exp {
		case "table1":
			runTable1(rep, simTimes, base, sel, trs, abl, *parallel, *jsonOut)
		case "figure7":
			runFigure7(rep, base, sel, trs, abl, *parallel, *jsonOut)
		case "loc":
			runLoC(rep, *jsonOut)
		case "all":
			runTable1(rep, simTimes, base, sel, trs, abl, *parallel, *jsonOut)
			sep(*jsonOut)
			runFigure7(rep, base, sel, trs, abl, *parallel, *jsonOut)
			sep(*jsonOut)
			runLoC(rep, *jsonOut)
		default:
			fatal(fmt.Errorf("unknown experiment %q", *exp))
		}
	}

	if *jsonOut {
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
func parseTransports(arg string) ([]core.Transport, error) {
	if strings.TrimSpace(strings.ToLower(arg)) == "all" {
		return core.Transports(), nil
	}
	var trs []core.Transport
	for _, name := range strings.Split(arg, ",") {
		tr, err := core.ParseTransport(name)
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

// ablation names the driver-kernel axes a sweep cross-multiplies (the
// -ablate flag): the memory fast path's dmi boolean and the
// temporal-decoupling quantum cells.
type ablation struct {
	dmi     bool
	quantum []sim.Time // quantum axis cells; empty = axis off
}

func (a ablation) active() bool { return a.dmi || len(a.quantum) > 0 }

// parseAblate resolves the -ablate flag value: a comma list of axis
// names ("dmi", "quantum"; "q" is an accepted short form). The quantum axis sweeps {0, quantum} when the -quantum flag
// supplies a non-zero value, and {0, 1x, 10x} of the 10ns default CPU
// period otherwise — the 10x cell is the regime where temporal
// decoupling should pay off.
func parseAblate(arg string, quantum sim.Time) (ablation, error) {
	var a ablation
	if strings.TrimSpace(arg) == "" {
		return a, nil
	}
	for _, f := range strings.Split(arg, ",") {
		switch strings.TrimSpace(strings.ToLower(f)) {
		case "dmi":
			a.dmi = true
		case "quantum", "q":
			if quantum > 0 {
				a.quantum = []sim.Time{0, quantum}
			} else {
				a.quantum = []sim.Time{0, 10 * sim.NS, 100 * sim.NS}
			}
		default:
			return a, fmt.Errorf("unknown -ablate axis %q (want dmi, quantum)", f)
		}
	}
	return a, nil
}

// expand cross-multiplies every driver-kernel scenario over the active
// ablation axes, tagging each cell /dmi=0|1 and /q=DUR.
// Schemes that ignore the memory fast path and temporal decoupling keep
// their single base cell: re-running them per cell would only duplicate
// identical measurements.
func (a ablation) expand(scens []harness.Scenario) []harness.Scenario {
	if !a.active() {
		return scens
	}
	var out []harness.Scenario
	for _, sc := range scens {
		if sc.Params.Scheme != harness.DriverKernel {
			out = append(out, sc)
			continue
		}
		qcells := a.quantum
		if len(qcells) == 0 {
			qcells = []sim.Time{sc.Params.Quantum}
		}
		dcells := []bool{sc.Params.DMI}
		if a.dmi {
			dcells = []bool{false, true}
		}
		for _, dv := range dcells {
			for _, qv := range qcells {
				cell := sc
				cell.Params.DMI = dv
				cell.Params.Quantum = qv
				if a.dmi {
					cell.Name += fmt.Sprintf("/dmi=%d", b2i(dv))
				}
				if len(a.quantum) > 0 {
					cell.Name += "/q=" + qtag(qv)
				}
				out = append(out, cell)
			}
		}
	}
	return out
}

// qtag renders a quantum cell's duration for the /q=DUR scenario tag;
// the lock-step cell reads /q=0.
func qtag(q sim.Time) string {
	if q == 0 {
		return "0"
	}
	return q.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// tagTransport suffixes scenario names with /tr=NAME so records from a
// multi-transport sweep stay distinguishable.
func tagTransport(scens []harness.Scenario, tr core.Transport) []harness.Scenario {
	for i := range scens {
		scens[i].Name += "/tr=" + core.TransportName(tr)
	}
	return scens
}

func runTable1(rep *report, simTimes []sim.Time, base harness.Params, sel harness.Scheme, trs []core.Transport, abl ablation, workers int, jsonOut bool) {
	multiTr := len(trs) > 1
	for _, tr := range trs {
		b := base
		b.Transport = tr
		scens := filterScenarios(harness.Table1Scenarios(simTimes, b), sel)
		scens = filterMultiCPU(scens, b.CPUs)
		if multiTr {
			scens = tagTransport(scens, tr)
		}
		scens = abl.expand(scens)
		outs := harness.RunAll(scens, workers)
		collectRuns(rep, outs)
		if sel >= 0 || b.CPUs > 1 || multiTr || abl.active() {
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

func runFigure7(rep *report, base harness.Params, sel harness.Scheme, trs []core.Transport, abl ablation, workers int, jsonOut bool) {
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
		scens = abl.expand(scens)
		outs := harness.RunAll(scens, workers)
		collectRuns(rep, outs)
		if sel >= 0 || multiTr || abl.active() {
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

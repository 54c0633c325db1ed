// Command bench is the repository's benchmark. It runs five workloads —
// four co-simulation configurations through harness.Run and a cosimd
// session mix over HTTP — each in a closed loop, checks every run's
// simulated outcome, and prints every metric with its unit and sample
// count as one JSON document.
//
// From the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-smoke] [-trace-out FILE]
//
// With -workload, the last line of output is a one-line summary: whether
// every op was correct, how many were attempted and failed, and the
// metrics BENCHMARK.json lists — end_to_end with -trace 0, per_layer
// with -trace 1. See bench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cosim/internal/core"
	"cosim/internal/harness"
	"cosim/internal/sim"
)

// options are one benchmark invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration // measure each workload at least this long
	trace   bool          // add the traced pass behind the per-layer metrics
	smoke   bool          // tiny runs that only prove the whole path works
}

// reps is the minimum number of measured reps of a simulation workload:
// 40 leave ten samples beyond the p75.
func (o options) reps() int {
	if o.smoke {
		return 2
	}
	return 40
}

// tracedReps is the number of untraced/traced pairs in the traced pass.
func (o options) tracedReps() int {
	if o.smoke {
		return 1
	}
	return 5
}

// sessions is the minimum number of cosimd-mix sessions: 1600 leave 16
// beyond the p99.
func (o options) sessions() int {
	if o.smoke {
		return 12
	}
	return 1600
}

// simTime is a workload's simulated duration per run.
func (o options) simTime(t sim.Time) sim.Time {
	if o.smoke {
		return 200 * sim.US
	}
	return t
}

// A workload is one set of inputs: a simulation run repeated, or
// cosimd-mix's session specs.
type workload struct {
	name   string
	params harness.Params
	mix    []mixSpec
	// deterministic: every rep must repeat the first rep's outcome.
	deterministic bool
}

// workloads lists the benchmark's workloads. Why each was chosen is in
// BENCHMARK.json and bench/README.md.
func workloads(o options) []workload {
	return []workload{
		{name: "wrapper-tcp", deterministic: true, params: harness.Params{
			Scheme: harness.GDBWrapper, Transport: core.TransportTCP,
			Delay: 20 * sim.US, SimTime: o.simTime(2 * sim.MS), Seed: o.seed,
		}},
		{name: "gdbkernel-ring-2cpu", deterministic: true, params: harness.Params{
			Scheme: harness.GDBKernel, Transport: core.TransportRing, CPUs: 2,
			Delay: 5 * sim.US, SimTime: o.simTime(4 * sim.MS), Seed: o.seed,
		}},
		{name: "driver-tcp", params: harness.Params{
			Scheme: harness.DriverKernel, Transport: core.TransportTCP,
			Delay: 20 * sim.US, SimTime: o.simTime(10 * sim.MS), Seed: o.seed,
		}},
		{name: "driver-fastpath-2cpu", params: harness.Params{
			Scheme: harness.DriverKernel, Transport: core.TransportRing, CPUs: 2,
			DMI: true, Coalesce: true, Quantum: 100 * sim.NS,
			Delay: 3 * sim.US, SimTime: o.simTime(10 * sim.MS), Seed: o.seed,
		}},
		{name: "cosimd-mix", mix: mixSpecs(o.seed)},
	}
}

func runWorkload(w workload, o options) (*report, error) {
	if w.mix != nil {
		return runMix(w, o)
	}
	return runSim(w, o)
}

func main() {
	var (
		o        options
		name     string
		seconds  float64
		trace    int
		traceOut string
	)
	flag.Int64Var(&o.seed, "seed", 1, "input seed: each run's Params.Seed; cosimd-mix's i-th spec gets seed+i")
	flag.StringVar(&name, "workload", "", "run only this workload and end with a one-line summary (default: all workloads)")
	flag.Float64Var(&seconds, "seconds", 0, "measure each workload at least this many seconds, past the minimum rep count")
	flag.IntVar(&trace, "trace", 1, "1 adds the traced pass that yields the per-layer metrics; 0 skips it")
	flag.BoolVar(&o.smoke, "smoke", false, "2 reps of 200us per workload, 1 traced pair, 12 cosimd sessions")
	flag.StringVar(&traceOut, "trace-out", "", "write the traced pass's spans to this file as Chrome trace-event JSON")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace != 0

	if err := run(o, name, traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// run measures the named workload, or all of them, and prints the
// results. A single workload's summary lists the metrics of the
// repository root's BENCHMARK.json, which run.sh runs from.
func run(o options, name, traceOut string) error {
	var spec *benchmarkFile
	if name != "" {
		var err error
		if spec, err = readBenchmarkFile("BENCHMARK.json"); err != nil {
			return err
		}
	}
	selected, err := selectWorkloads(workloads(o), name)
	if err != nil {
		return err
	}
	var reports []*report
	for _, w := range selected {
		r, err := runWorkload(w, o)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, r)
	}
	if traceOut != "" {
		if err := writeTraceFile(traceOut, reports); err != nil {
			return err
		}
	}
	doc, err := json.MarshalIndent(struct {
		Seed       int64     `json:"seed"`
		Smoke      bool      `json:"smoke"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		Workloads  []*report `json:"workloads"`
	}{o.seed, o.smoke, runtime.GOMAXPROCS(0), reports}, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(doc))
	if spec == nil {
		return nil
	}
	line, err := spec.summary(reports[0], o.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func selectWorkloads(all []workload, name string) ([]workload, error) {
	if name == "" {
		return all, nil
	}
	for _, w := range all {
		if w.name == name {
			return []workload{w}, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func writeTraceFile(path string, reports []*report) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	names := make([]string, len(reports))
	tracers := make([]*tracer, len(reports))
	for i, r := range reports {
		names[i], tracers[i] = r.Workload, r.tracer
	}
	if err := writeChromeTrace(f, names, tracers); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// Units of the reported metrics.
const (
	unitMsPerMs = "ms/ms"
	unitMBPerMs = "MB/ms"
	unitPerMs   = "1/ms"
	unitMs      = "ms"
	unitS       = "s"
	unitPerS    = "1/s"
	unitRatio   = "ratio"
	unitPct     = "%"
	unitBytes   = "B"
	unitCount   = "count"
	unitMIPS    = "Minstr/s"
)

// A metric is one reported number. Value is nil when there were too few
// samples to report it honestly.
type metric struct {
	Value *float64 `json:"value"`
	Unit  string   `json:"unit"`
	N     int      `json:"n"`
}

// A report is one workload's result.
type report struct {
	Workload  string            `json:"workload"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`

	tracer *tracer // the traced pass's spans, for -trace-out
}

func newReport(name string) *report {
	return &report{Workload: name, Metrics: map[string]metric{}}
}

// put records a metric over n samples; ok false records it absent.
func (r *report) put(name, unit string, v float64, ok bool, n int) {
	m := metric{Unit: unit, N: n}
	if ok {
		m.Value = &v
	}
	r.Metrics[name] = m
}

func (r *report) putMedian(name, unit string, xs []float64) {
	v, ok := median(xs)
	r.put(name, unit, v, ok, len(xs))
}

func (r *report) putTail(name, unit string, xs []float64, pm int) {
	v, ok := tail(xs, pm)
	r.put(name, unit, v, ok, len(xs))
}

// putTally records the op counts and fail_frac.
func (r *report) putTally(t *tally) {
	r.Attempted, r.Failed, r.Failures = t.attempted, t.failed, t.reasons
	r.put("fail_frac", unitRatio, ratio(float64(t.failed), float64(t.attempted)), t.attempted > 0, t.attempted)
	r.put("harness.distinct_outcomes", unitCount, float64(t.distinct()), true, t.attempted)
}

// ratio is a/b, or 0 when b is 0: a layer that did none of the work a
// ratio measures reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// simMs is a run's simulated time in milliseconds.
func simMs(m harness.Metrics) float64 { return float64(m.SimulatedPS) / float64(sim.MS) }

// benchmarkFile is the part of BENCHMARK.json the summary line needs.
type benchmarkFile struct {
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// summary is the one-line result of a single-workload invocation:
// the end-to-end metrics, or with trace the per-layer ones.
func (b *benchmarkFile) summary(r *report, trace bool) ([]byte, error) {
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	type valueUnit struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	metrics := map[string]valueUnit{}
	for _, bm := range list {
		m, ok := r.Metrics[bm.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s is not measured", r.Workload, bm.Name)
		}
		if m.Unit != bm.Unit {
			return nil, fmt.Errorf("%s: metric %s is in %s, BENCHMARK.json says %s", r.Workload, bm.Name, m.Unit, bm.Unit)
		}
		metrics[bm.Name] = valueUnit{m.Value, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, metrics})
}

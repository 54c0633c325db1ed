package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"cosim/internal/harness"
	"cosim/internal/sim"
)

// A sample is one measured harness.Run call.
type sample struct {
	m     harness.Metrics // the run's own record
	call  time.Duration   // the whole call: set-up, the run, teardown
	cpu   time.Duration   // process user+sys CPU time across the call
	scale float64         // scaleOf the probe taken just before the call
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedRun is one measured harness.Run call of p.
func timedRun(p harness.Params) (*harness.Result, sample, error) {
	cpu0 := cpuTime()
	start := time.Now()
	res, err := harness.Run(p)
	call := time.Since(start)
	cpu := cpuTime() - cpu0
	if err != nil {
		return nil, sample{}, err
	}
	return res, sample{m: res.Metrics(), call: call, cpu: cpu}, nil
}

// runSim measures a simulation workload: one discarded warm-up rep, then
// reps until both the minimum count and o.seconds are reached, each
// after a GC and a host probe outside its timing, so that it neither
// pays for its predecessor's garbage nor is judged by a host speed it
// did not run at; then, with o.trace, the traced pass.
func runSim(w workload, o options) (*report, error) {
	r := newReport(w.name)
	t := &tally{}
	pr, err := newProber()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	_, _ = harness.Run(w.params) // warm-up: its outcome is discarded

	var samples []sample
	var probes []float64
	start := time.Now()
	for t.attempted < o.reps() || time.Since(start) < o.seconds {
		runtime.GC()
		pm, err := pr.probe()
		if err != nil {
			return nil, err
		}
		probes = append(probes, pm)
		res, s, err := timedRun(w.params)
		if err != nil {
			t.fail(err.Error())
			continue
		}
		s.scale = scaleOf(pm)
		if t.add(w.name, w.deterministic, outcome(s.m, res.Received), check(res)) {
			samples = append(samples, s)
		}
	}
	simEndToEnd(r, samples)
	r.putMedian("host.probe_ms", unitMs, probes)
	records := make([]harness.Metrics, len(samples))
	for i, s := range samples {
		records[i] = s.m
	}
	layerCounters(r, records)
	putNoServer(r, len(samples))

	if o.trace {
		paths, err := tracedRuns(r, o, t, []workload{w}, true)
		if err == nil {
			err = putShares(r, paths)
		}
		if err != nil {
			return nil, err
		}
	}
	r.putTally(t)
	return r, nil
}

// simEndToEnd reports the end-to-end metrics of measured runs, each
// timing scaled to the nominal host by its rep's probe.
func simEndToEnd(r *report, samples []sample) {
	var wall, cpu, setup, alloc, call []float64
	var callSum, cpuSum time.Duration
	var scaledCalls float64
	for _, s := range samples {
		sm := simMs(s.m)
		run := time.Duration(s.m.WallNS)
		wall = append(wall, s.scale*ms(run)/sm)
		cpu = append(cpu, s.scale*ms(s.cpu)/sm)
		setup = append(setup, s.scale*(s.call-run).Seconds())
		alloc = append(alloc, float64(s.m.AllocBytes)/1e6/sm)
		call = append(call, s.scale*ms(s.call))
		scaledCalls += s.scale * s.call.Seconds()
		callSum += s.call
		cpuSum += s.cpu
	}
	n := len(samples)
	r.putMedian("wall_ms_per_sim_ms", unitMsPerMs, wall)
	r.putTail("wall_ms_per_sim_ms_p75", unitMsPerMs, wall, 750)
	r.putMedian("cpu_ms_per_sim_ms", unitMsPerMs, cpu)
	r.putMedian("setup_s", unitS, setup)
	r.putMedian("alloc_mb_per_sim_ms", unitMBPerMs, alloc)
	r.put("sessions_per_s", unitPerS, ratio(float64(n), scaledCalls), n > 0, n)
	r.putMedian("session_ms_p50", unitMs, call)
	r.putTail("session_ms_p99", unitMs, call, 990)
	r.put("host.cpu_util", unitRatio, ratio(float64(cpuSum), float64(callSum)), n > 0, n)
}

// putNoServer reports the server layer of a workload that calls the
// harness directly: no queue, no HTTP, no 429s.
func putNoServer(r *report, n int) {
	r.put("server.queue_ms_p50", unitMs, 0, true, n)
	r.put("server.http_ms_p50", unitMs, 0, true, n)
	r.put("server.refused_429", unitCount, 0, true, n)
}

// tracedRuns runs o.tracedReps() traced reps of each workload in runs,
// each after a GC as the untraced reps are and, with profile, under its
// own CPU profile, whose paths it returns. Each traced rep follows an
// untraced rep of the same workload, and the median ratio of their wall
// times is the tracing overhead. It reports that and the transport
// spans' metrics. Its ops count in t, as the same kind as the untraced
// runs of the same workload.
func tracedRuns(r *report, o options, t *tally, runs []workload, profile bool) ([]string, error) {
	tr := newTracer()
	r.tracer = tr
	var overhead []float64
	var traced float64 // simulated ms
	var profiles []string
	for i := 0; i < o.tracedReps(); i++ {
		for _, w := range runs {
			runtime.GC()
			res, plain, err := timedRun(w.params)
			if err != nil {
				t.fail(err.Error())
				continue
			}
			if !t.add(w.name, w.deterministic, outcome(plain.m, res.Received), check(res)) {
				continue
			}
			runtime.GC()
			op := func() { res, err = tr.runTraced(w.params) }
			if profile {
				path, perr := profiled(op)
				if perr != nil {
					removeFiles(profiles)
					return nil, perr
				}
				profiles = append(profiles, path)
			} else {
				op()
			}
			if err != nil {
				t.fail(fmt.Sprintf("traced: %v", err))
				continue
			}
			if t.add(w.name, w.deterministic, outcome(res.Metrics(), res.Received), check(res)) {
				traced += float64(res.Simulated) / float64(sim.MS)
				overhead = append(overhead, float64(res.Wall)/float64(plain.m.WallNS)-1)
			}
		}
	}
	tr.transportMetrics(r, traced)
	r.putMedian("bench.trace_overhead_frac", unitRatio, overhead)
	return profiles, nil
}

// putShares reports the CPU shares of the profiles at paths.
func putShares(r *report, paths []string) error {
	shares, err := readProfiles(paths)
	if err != nil {
		return err
	}
	shares.put(r)
	return nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cosim/internal/harness"
	"cosim/internal/server"
)

// mixClients is cosimd-mix's number of closed-loop clients; with the
// same number of server workers, load stays at the host's two CPUs.
const mixClients = 2

// A mixSpec is one of cosimd-mix's session specs.
type mixSpec struct {
	name          string
	spec          harness.Spec
	deterministic bool
}

// mixSpecs are cosimd-mix's four specs, 200us of simulated time each,
// so per-session set-up and HTTP are a visible share of a session. The
// two Driver-Kernel specs' guests run against wall-clock WFI sleeps, so
// their outcomes vary from run to run; the GDB specs' repeat.
func mixSpecs(seed int64) []mixSpec {
	return []mixSpec{
		{name: "gdb-wrapper-pipe", deterministic: true, spec: harness.Spec{
			Scheme: "gdb-wrapper", Transport: "pipe", SimTime: "200us", Seed: seed}},
		{name: "gdb-kernel-pipe", deterministic: true, spec: harness.Spec{
			Scheme: "gdb-kernel", Transport: "pipe", SimTime: "200us", Seed: seed + 1}},
		{name: "driver-kernel-pipe", spec: harness.Spec{
			Scheme: "driver-kernel", Transport: "pipe", SimTime: "200us", Seed: seed + 2}},
		{name: "driver-kernel-ring-2cpu", spec: harness.Spec{
			Scheme: "driver-kernel", Transport: "ring", CPUs: 2, DMI: true, Coalesce: true,
			Quantum: "100ns", Delay: "3us", SimTime: "200us", Seed: seed + 3}},
	}
}

// A sessionRecord is one session as its client saw it.
type sessionRecord struct {
	spec    int           // index into the mix
	total   time.Duration // POST to the close of the metrics stream
	refused bool          // the POST was answered 429
	status  server.Status // the terminal status
	err     error
	scale   float64 // scaleOf the host probe before the session's chunk
}

// mixClient drives a cosimd over HTTP.
type mixClient struct {
	base   string
	http   *http.Client
	bodies [][]byte // the mix's specs, encoded
}

// runMix measures cosimd-mix: an in-process server.New with two
// workers behind net/http on a loopback port, driven by two closed-loop
// clients that submit the mix's specs round-robin.
func runMix(w workload, o options) (*report, error) {
	r := newReport(w.name)
	t := &tally{}
	c := &mixClient{http: &http.Client{Timeout: time.Minute, Transport: &http.Transport{}}}
	for _, m := range w.mix {
		body, err := json.Marshal(m.spec)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, body)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c.base = "http://" + ln.Addr().String()
	srv := server.New(server.Config{Workers: mixClients})
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		// Every client has returned, so every connection is idle and
		// Shutdown returns once it has closed them.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
		<-served
		_ = srv.Close()
		c.http.CloseIdleConnections()
	}()

	c.pass(len(w.mix), 0) // warm-up: discarded

	pr, err := newProber()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	var (
		recs   []sessionRecord
		probes []float64
		tot    passTotals
	)
	start := time.Now()
	for len(recs) < o.sessions() || time.Since(start) < o.seconds {
		// The pass runs in chunks with a GC and a host probe between
		// them, where nothing else runs, so that each chunk's timings
		// are scaled by the host speed of their moment.
		runtime.GC()
		pm, err := pr.probe()
		if err != nil {
			return nil, err
		}
		probes = append(probes, pm)
		chunk := tot.measure(scaleOf(pm), func() []sessionRecord { return c.pass(min(mixChunk, o.sessions()), 0) })
		recs = append(recs, chunk...)
	}
	done := tallySessions(t, w.mix, recs)
	mixEndToEnd(r, len(w.mix), recs, done, tot)
	r.putMedian("host.probe_ms", unitMs, probes)
	records := make([]harness.Metrics, len(done))
	for i, rec := range done {
		records[i] = *rec.status.Metrics
	}
	layerCounters(r, records)

	if o.trace {
		// The HTTP API takes a Spec, not a transport, so the transport
		// spans come from the same specs run directly; the CPU profile
		// covers chunks of real sessions.
		var paths []string
		for i := 0; i < o.tracedReps(); i++ {
			runtime.GC()
			var round []sessionRecord
			path, err := profiled(func() { round = c.pass(min(mixChunk, o.sessions()), 0) })
			if err != nil {
				removeFiles(paths)
				return nil, err
			}
			paths = append(paths, path)
			tallySessions(t, w.mix, round)
		}
		runs := make([]workload, len(w.mix))
		for i, m := range w.mix {
			p, err := m.spec.Params()
			if err != nil {
				removeFiles(paths)
				return nil, err
			}
			runs[i] = workload{name: "run " + m.name, params: p, deterministic: m.deterministic}
		}
		more, err := tracedRuns(r, o, t, runs, false)
		paths = append(paths, more...)
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

// mixChunk is the number of sessions between host probes: about half a
// second of the pass, and a whole number of rounds of the mix.
const mixChunk = 100

// passTotals accumulates a pass's chunks: wall and CPU time raw and
// scaled to the nominal host, and bytes allocated.
type passTotals struct {
	wall, cpu             time.Duration
	scaledWall, scaledCPU float64 // seconds, ms
	alloc                 uint64
}

// measure runs one chunk and adds its totals, with its timings scaled
// by scale; it stamps the chunk's sessions with scale too.
func (p *passTotals) measure(scale float64, chunk func() []sessionRecord) []sessionRecord {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	recs := chunk()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	p.wall += wall
	p.cpu += cpu
	p.scaledWall += scale * wall.Seconds()
	p.scaledCPU += scale * ms(cpu)
	p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
	for i := range recs {
		recs[i].scale = scale
	}
	return recs
}

// tallySessions counts sessions in t and returns those that passed.
func tallySessions(t *tally, mix []mixSpec, recs []sessionRecord) []sessionRecord {
	var done []sessionRecord
	for _, rec := range recs {
		m := mix[rec.spec]
		if rec.err != nil {
			t.fail(fmt.Sprintf("session %s: %v", m.name, rec.err))
			continue
		}
		st := rec.status
		if reason := checkSession(string(st.State), st.Metrics); reason != "" {
			t.fail(fmt.Sprintf("session %s %s: %s %s", m.name, st.ID, reason, st.Error))
			continue
		}
		if t.add("session "+m.name, m.deterministic, outcome(*st.Metrics, 0), "") {
			done = append(done, rec)
		}
	}
	return done
}

// mixEndToEnd reports cosimd-mix's end-to-end metrics, each timing
// scaled to the nominal host by its chunk's probe. Per-session timings
// are the mean over the mix's specs of each spec's quantile: a quantile
// across the whole mix would fall between the specs' modes and jump
// when their proportions shift by a session. CPU time and allocation
// are the pass's, clients and server included, over the simulated time
// of the sessions done.
func mixEndToEnd(r *report, specs int, all, done []sessionRecord, tot passTotals) {
	walls, setup, total := make([][]float64, specs), make([][]float64, specs), make([][]float64, specs)
	var queue, overhead, totalAll []float64
	var simTotal float64
	for _, rec := range done {
		st, m, i, sc := rec.status, rec.status.Metrics, rec.spec, rec.scale
		sm := simMs(*m)
		simTotal += sm
		run := time.Duration(m.WallNS)
		session := time.Duration(st.WallNS)
		walls[i] = append(walls[i], sc*ms(run)/sm)
		setup[i] = append(setup[i], sc*(session-run).Seconds())
		total[i] = append(total[i], sc*ms(rec.total))
		totalAll = append(totalAll, sc*ms(rec.total))
		queue = append(queue, ms(time.Duration(st.QueueWaitNS)))
		overhead = append(overhead, ms(rec.total-time.Duration(st.QueueWaitNS)-session))
	}
	refused := 0
	for _, rec := range all {
		if rec.refused {
			refused++
		}
	}
	p75 := func(xs []float64) (float64, bool) { return tail(xs, 750) }
	n, ok := len(done), simTotal > 0
	r.putSpecMean("wall_ms_per_sim_ms", unitMsPerMs, walls, median)
	r.putSpecMean("wall_ms_per_sim_ms_p75", unitMsPerMs, walls, p75)
	r.put("cpu_ms_per_sim_ms", unitMsPerMs, tot.scaledCPU/simTotal, ok, n)
	r.putSpecMean("setup_s", unitS, setup, median)
	r.put("alloc_mb_per_sim_ms", unitMBPerMs, float64(tot.alloc)/1e6/simTotal, ok, n)
	r.put("sessions_per_s", unitPerS, ratio(float64(n), tot.scaledWall), tot.wall > 0, n)
	r.putSpecMean("session_ms_p50", unitMs, total, median)
	r.putTail("session_ms_p99", unitMs, totalAll, 990)
	r.put("host.cpu_util", unitRatio, ratio(float64(tot.cpu), float64(tot.wall)), tot.wall > 0, n)
	r.putMedian("server.queue_ms_p50", unitMs, queue)
	r.putMedian("server.http_ms_p50", unitMs, overhead)
	r.put("server.refused_429", unitCount, float64(refused), true, len(all))
}

// putSpecMean records the mean over groups of q of each group; absent
// when any group's is.
func (r *report) putSpecMean(name, unit string, groups [][]float64, q func([]float64) (float64, bool)) {
	sum, n, ok := 0.0, 0, len(groups) > 0
	for _, g := range groups {
		v, gok := q(g)
		sum += v
		n += len(g)
		ok = ok && gok
	}
	r.put(name, unit, sum/float64(len(groups)), ok, n)
}

// pass runs sessions from mixClients closed-loop clients, round-robin
// over the mix, until at least n have started and d has passed.
func (c *mixClient) pass(n int, d time.Duration) []sessionRecord {
	var next atomic.Int64
	start := time.Now()
	recs := make([][]sessionRecord, mixClients)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n && time.Since(start) >= d {
					return
				}
				recs[i] = append(recs[i], c.session(k%len(c.bodies)))
			}
		}(i)
	}
	wg.Wait()
	var all []sessionRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	return all
}

// session runs spec i of the mix to completion. It waits on the
// session's metrics stream, which the server closes when the session
// ends, so no polling interval hides the latency.
func (c *mixClient) session(i int) sessionRecord {
	rec := sessionRecord{spec: i}
	start := time.Now()
	id, refused, err := c.submit(c.bodies[i])
	rec.refused = refused
	if err == nil {
		err = c.await(id)
	}
	rec.total = time.Since(start)
	if err == nil {
		rec.status, err = c.status(id)
	}
	rec.err = err
	return rec
}

// submit POSTs a spec and returns the admitted session's id. Two
// closed-loop clients can never fill two workers and their queue, so a
// 429 fails the op like any other refusal; refused reports one.
func (c *mixClient) submit(body []byte) (id string, refused bool, err error) {
	resp, err := c.http.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", false, fmt.Errorf("POST /v1/sessions: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", resp.StatusCode == http.StatusTooManyRequests, fmt.Errorf("POST /v1/sessions: %s: %s", resp.Status, data)
	}
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", false, fmt.Errorf("POST /v1/sessions: %w", err)
	}
	return st.ID, false, nil
}

// await reads the session's metrics stream to its end. With an hour's
// interval the server sends one frame at once and the last when the
// session ends, then closes the stream.
func (c *mixClient) await(id string) error {
	resp, err := c.http.Get(c.base + "/v1/sessions/" + id + "/metrics?interval=1h")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET metrics of %s: %s", id, resp.Status)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("metrics stream of %s: %w", id, err)
	}
	return nil
}

// status GETs a session's status.
func (c *mixClient) status(id string) (server.Status, error) {
	var st server.Status
	resp, err := c.http.Get(c.base + "/v1/sessions/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET session %s: %s", id, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("GET session %s: %w", id, err)
	}
	return st, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"cosim/internal/harness"
	"cosim/internal/transport"
)

// An op is the call a span times.
type op uint8

const (
	opRead op = iota
	opWrite
	opFlush
)

var opNames = [...]string{"read", "write", "flush"}

// A span is one timed Read, Write or Flush on a channel end, or one
// harness.Run call. It holds no pointers, so millions of them cost the
// garbage collector nothing to scan.
type span struct {
	start, end time.Duration // since the tracer's epoch
	bytes      int
	run        int32 // the enclosing run span's number, from 1
	op         op
}

// A tracer keeps a traced pass's spans in memory. Runs are sequential,
// so one open run span at a time encloses every I/O span.
type tracer struct {
	epoch time.Time
	run   atomic.Int32 // number of the open run span; 0 between runs

	mu   sync.Mutex
	runs []span           // guarded by mu
	ends []*timedEndpoint // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// runTraced executes p inside a run span, with both ends of every
// channel it opens timed.
func (t *tracer) runTraced(p harness.Params) (*harness.Result, error) {
	inner := p.Transport
	if inner == nil {
		inner = transport.Pipe
	}
	p.Transport = &timedTransport{Transport: inner, t: t}
	s := span{start: time.Since(t.epoch)}
	t.mu.Lock()
	s.run = int32(len(t.runs) + 1)
	t.mu.Unlock()
	t.run.Store(s.run)

	res, err := harness.Run(p)

	t.run.Store(0)
	s.end = time.Since(t.epoch)
	t.mu.Lock()
	t.runs = append(t.runs, s)
	t.mu.Unlock()
	return res, err
}

// timedTransport wraps a backend so both ends of every pair it creates
// record spans. Name, Listen and Dial are the backend's own, so
// transport.<name>.* counters keep their names.
type timedTransport struct {
	transport.Transport
	t *tracer
}

func (tt *timedTransport) Pair() (host, guest transport.Endpoint, err error) {
	host, guest, err = tt.Transport.Pair()
	if err != nil {
		return nil, nil, err
	}
	tt.t.mu.Lock()
	defer tt.t.mu.Unlock()
	k := len(tt.t.ends) / 2
	h := &timedEndpoint{ep: host, t: tt.t, track: 2*k + 1}
	g := &timedEndpoint{ep: guest, t: tt.t, track: 2*k + 2}
	tt.t.ends = append(tt.t.ends, h, g)
	return h, g, nil
}

// timedEndpoint records a span per Read and Write, and per Flush that
// reaches a buffering endpoint. The schemes flush every channel every
// cycle, mostly with nothing buffered, so other flushes are only
// counted. It forwards Flush and RecordBatch so batching and its
// accounting are unchanged, and Close through io.Closer so teardown is
// too. Reads and writes run on different goroutines, so each side has
// its own lock.
type timedEndpoint struct {
	ep      transport.Endpoint
	t       *tracer
	track   int // 2k+1 for the host end of pair k, 2k+2 for its guest end
	flushes atomic.Int64

	rmu   sync.Mutex
	reads []span // guarded by rmu

	wmu    sync.Mutex
	writes []span // writes and buffered flushes; guarded by wmu
}

func (e *timedEndpoint) span(o op, start time.Time, n int) span {
	return span{start: start.Sub(e.t.epoch), end: time.Since(e.t.epoch), bytes: n, run: e.t.run.Load(), op: o}
}

func (e *timedEndpoint) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := e.ep.Read(p)
	s := e.span(opRead, start, n)
	e.rmu.Lock()
	e.reads = append(e.reads, s)
	e.rmu.Unlock()
	return n, err
}

func (e *timedEndpoint) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := e.ep.Write(p)
	e.addWrite(e.span(opWrite, start, n))
	return n, err
}

func (e *timedEndpoint) Flush() error {
	e.flushes.Add(1)
	f, ok := e.ep.(transport.Flusher)
	if !ok {
		return nil
	}
	start := time.Now()
	err := f.Flush()
	e.addWrite(e.span(opFlush, start, 0))
	return err
}

func (e *timedEndpoint) addWrite(s span) {
	e.wmu.Lock()
	e.writes = append(e.writes, s)
	e.wmu.Unlock()
}

func (e *timedEndpoint) RecordBatch(n int) { transport.RecordBatch(e.ep, n) }

func (e *timedEndpoint) Close() error { return e.ep.Close() }

func (e *timedEndpoint) host() bool { return e.track%2 == 1 }

// spans returns copies of the endpoint's recorded spans.
func (e *timedEndpoint) spans() []span {
	e.rmu.Lock()
	out := append([]span(nil), e.reads...)
	e.rmu.Unlock()
	e.wmu.Lock()
	out = append(out, e.writes...)
	e.wmu.Unlock()
	return out
}

func (t *tracer) endpoints() []*timedEndpoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*timedEndpoint(nil), t.ends...)
}

// transportMetrics derives the transport layer's per-layer metrics
// from the I/O spans, over simMs simulated milliseconds of traced runs.
// Reads block until data arrives, so their time is waiting; writes are
// busy time.
func (t *tracer) transportMetrics(r *report, simMs float64) {
	var hostWrites, writes, bytes, n int
	var flushes int64
	var hostWrite, hostRead, guestRead time.Duration
	for _, e := range t.endpoints() {
		flushes += e.flushes.Load()
		for _, s := range e.spans() {
			n++
			d := s.end - s.start
			switch {
			case s.op == opWrite:
				writes++
				bytes += s.bytes
				if e.host() {
					hostWrites++
					hostWrite += d
				}
			case s.op == opRead && e.host():
				hostRead += d
			case s.op == opRead:
				guestRead += d
			}
		}
	}
	ok := simMs > 0
	r.put("transport.host_write_calls_per_sim_ms", unitPerMs, float64(hostWrites)/simMs, ok, n)
	r.put("transport.host_write_ms_per_sim_ms", unitMsPerMs, ms(hostWrite)/simMs, ok, n)
	r.put("transport.host_read_wait_ms_per_sim_ms", unitMsPerMs, ms(hostRead)/simMs, ok, n)
	r.put("transport.guest_read_wait_ms_per_sim_ms", unitMsPerMs, ms(guestRead)/simMs, ok, n)
	r.put("transport.flushes_per_sim_ms", unitPerMs, float64(flushes)/simMs, ok, n)
	r.put("transport.bytes_per_write", unitBytes, ratio(float64(bytes), float64(writes)), true, writes)
}

// traceEvent is one Chrome trace-event record: an "X" complete event,
// or "M" metadata naming a process or thread.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the tracers' spans as Chrome trace-event
// JSON: one process per workload, thread 0 for its run spans and one
// thread per channel end. Each I/O event names its run span in args.
func writeChromeTrace(w io.Writer, workloads []string, tracers []*tracer) error {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := []traceEvent{}
	meta := func(name string, pid, tid int, value string) {
		events = append(events, traceEvent{Name: name, Ph: "M", PID: pid, TID: tid, Args: map[string]any{"name": value}})
	}
	for pid, t := range tracers {
		if t == nil {
			continue
		}
		meta("process_name", pid, 0, workloads[pid])
		meta("thread_name", pid, 0, "runs")
		t.mu.Lock()
		for _, s := range t.runs {
			events = append(events, traceEvent{Name: "harness.Run", Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: pid,
				Args: map[string]any{"run": s.run}})
		}
		t.mu.Unlock()
		for _, e := range t.endpoints() {
			side := "guest"
			if e.host() {
				side = "host"
			}
			meta("thread_name", pid, e.track, fmt.Sprintf("pair %d %s", (e.track-1)/2, side))
			for _, s := range e.spans() {
				events = append(events, traceEvent{Name: opNames[s.op], Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: pid, TID: e.track,
					Args: map[string]any{"run": s.run, "bytes": s.bytes}})
			}
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
}

package main

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"cosim/internal/obs"
	"cosim/internal/transport"
)

// fakeEndpoint buffers like a Buffered endpoint and records what the
// wrapper forwards to it.
type fakeEndpoint struct {
	bytes.Buffer
	flushes, batched, closes int
}

func (f *fakeEndpoint) Flush() error      { f.flushes++; return nil }
func (f *fakeEndpoint) RecordBatch(n int) { f.batched += n }
func (f *fakeEndpoint) Close() error      { f.closes++; return nil }

// plainEndpoint neither buffers nor counts batches, like a socket.
type plainEndpoint struct{ bytes.Buffer }

func (*plainEndpoint) Close() error { return nil }

type fakeTransport struct {
	transport.Transport
	host, guest transport.Endpoint
}

func (fakeTransport) Name() string { return "fake" }
func (f fakeTransport) Pair() (transport.Endpoint, transport.Endpoint, error) {
	return f.host, f.guest, nil
}

func TestTimedEndpointForwards(t *testing.T) {
	tr := newTracer()
	host, guest := &fakeEndpoint{}, &plainEndpoint{}
	guest.WriteString("reply")
	tt := &timedTransport{Transport: fakeTransport{host: host, guest: guest}, t: tr}
	if tt.Name() != "fake" {
		t.Fatalf("Name = %q, want the backend's", tt.Name())
	}
	h, g, err := tt.Pair()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := transport.Flush(h); err != nil {
		t.Fatal(err)
	}
	transport.RecordBatch(h, 3)
	buf := make([]byte, 8)
	if n, err := g.Read(buf); err != nil || n != 5 {
		t.Fatalf("guest Read = %d, %v", n, err)
	}
	if err := transport.Flush(g); err != nil {
		t.Fatal(err)
	}
	var c io.Closer = h
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if host.String() != "abc" || host.flushes != 1 || host.batched != 3 || host.closes != 1 {
		t.Errorf("host saw %q, %d flushes, %d batched, %d closes; want abc, 1, 3, 1",
			host.String(), host.flushes, host.batched, host.closes)
	}

	// A write and a flush that reached a buffer on the host end; a read
	// and a counted-only flush on the guest end.
	ends := tr.endpoints()
	if len(ends) != 2 {
		t.Fatalf("%d timed ends, want 2", len(ends))
	}
	for _, tc := range []struct {
		e       *timedEndpoint
		ops     []op
		flushes int64
	}{
		{ends[0], []op{opWrite, opFlush}, 1},
		{ends[1], []op{opRead}, 1},
	} {
		var got []op
		for _, s := range tc.e.spans() {
			got = append(got, s.op)
		}
		if len(got) != len(tc.ops) || tc.e.flushes.Load() != tc.flushes {
			t.Errorf("track %d: spans %v, %d flushes; want %v, %d", tc.e.track, got, tc.e.flushes.Load(), tc.ops, tc.flushes)
		}
	}
}

// TestTimedTransportKeepsCounters: harness.Run wraps Params.Transport
// with the observed transport, whose counters take the backend's name.
func TestTimedTransportKeepsCounters(t *testing.T) {
	reg := obs.NewRegistry()
	tt := &timedTransport{Transport: transport.Ring, t: newTracer()}
	h, g, err := transport.Observed(tt, reg).Pair()
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	defer g.Close()
	if _, err := h.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Flatten()
	if c["transport.ring.pairs"] != 1 || c["transport.ring.tx_bytes"] != 4 {
		t.Errorf("counters %v, want transport.ring.pairs 1 and tx_bytes 4", c)
	}
}

// TestTracingMeasuresTheSameProgram: a traced run of each deterministic
// workload — tcp and ring between them — has the untraced run's outcome
// and moves the same bytes. driver-fastpath-2cpu is left out: its
// outcome differs between two untraced runs too, in about 1 pair of 20
// at this size.
func TestTracingMeasuresTheSameProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs co-simulations")
	}
	for _, w := range workloads(options{seed: 1, smoke: true}) {
		if !w.deterministic {
			continue
		}
		plain, _, err := timedRun(w.params)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := newTracer().runTraced(w.params)
		if err != nil {
			t.Fatal(err)
		}
		a, b := outcome(plain.Metrics(), plain.Received), outcome(traced.Metrics(), traced.Received)
		if a != b {
			t.Errorf("%s: traced outcome %+v, untraced %+v", w.name, b, a)
		}
		var moved uint64
		for k, v := range plain.Counters {
			if strings.HasPrefix(k, "transport.") && strings.HasSuffix(k, "_bytes") {
				moved += v
				if traced.Counters[k] != v {
					t.Errorf("%s: %s traced %d, untraced %d", w.name, k, traced.Counters[k], v)
				}
			}
		}
		if moved == 0 {
			t.Errorf("%s: no transport bytes counted", w.name)
		}
	}
}

// tracesOut is `go tool pprof -traces` output in the shape the parser
// reads: a header, then one block per stack, innermost frame first.
const tracesOut = `File: bench
Type: cpu
Duration: 1s, Total samples = 100ms (10.00%)
-----------+-------------------------------------------------------
      40ms   internal/runtime/syscall.Syscall6
             syscall.Syscall
             net.(*conn).Write
             cosim/internal/transport.(*countedEndpoint).Write
             cosim/internal/gdb.(*Client).send
             cosim/internal/harness.RunContext
-----------+-------------------------------------------------------
      30ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      20ms   runtime.nextFreeFast (inline)
             runtime.mallocgc
             cosim/internal/router/guest.build
             cosim/internal/sim.(*Kernel).Run
-----------+-------------------------------------------------------
      10ms   cosim/internal/newpkg.F
-----------+-------------------------------------------------------
`

func TestParseTracesChargesInnermostLayer(t *testing.T) {
	s, err := parseTraces([]byte(tracesOut))
	if err != nil {
		t.Fatal(err)
	}
	r := newReport("w")
	s.put(r)
	want := map[string]float64{
		"transport.cpu_share":         0.4,
		"runtime.unowned_cpu_share":   0.3,
		"router.cpu_share":            0.2,
		"newpkg.cpu_share":            0.1,
		"sim.cpu_share":               0,
		"runtime.gc_cpu_share":        0.5,
		"transport.syscall_cpu_share": 0.4,
	}
	for name, v := range want {
		m, ok := r.Metrics[name]
		if !ok || m.Value == nil || math.Abs(*m.Value-v) > 1e-9 || m.N != 10 {
			t.Errorf("%s = %+v, want %v over 10 samples", name, m, v)
		}
	}
	sum := 0.0
	for name, m := range r.Metrics {
		if strings.HasSuffix(name, ".cpu_share") || name == "runtime.unowned_cpu_share" {
			sum += *m.Value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("owner shares sum to %v, want 1", sum)
	}
}

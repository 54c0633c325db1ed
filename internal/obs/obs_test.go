package obs

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a") != c {
		t.Fatal("Counter is not idempotent by name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(3)
	if got := g.Load(); got != 10 {
		t.Fatalf("gauge = %d, want 10", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 1010 {
		t.Fatalf("sum = %d, want 1010", h.Sum())
	}
	s := h.snapshot()
	// Buckets: 0 -> le 0; 1 -> le 1; 2,3 -> le 3; 4 -> le 7; 1000 -> le 1023.
	want := map[uint64]uint64{0: 1, 1: 1, 3: 2, 7: 1, 1023: 1}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %v", s.Buckets, want)
	}
	for _, b := range s.Buckets {
		if want[b.Le] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.Le, b.Count, want[b.Le])
		}
	}
	if s.Max != 1023 {
		t.Fatalf("max = %d, want 1023", s.Max)
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Load() != 0 {
		t.Fatal("nil counter should load 0")
	}
	g := r.Gauge("x")
	g.Set(9)
	if g.Load() != 0 {
		t.Fatal("nil gauge should load 0")
	}
	h := r.Histogram("x")
	h.Observe(42)
	h.Start().End()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should stay empty")
	}
	s := r.Snapshot()
	if len(s.Flatten()) != 0 {
		t.Fatal("nil registry snapshot should flatten empty")
	}
}

func TestDisabledHotPathZeroAllocs(t *testing.T) {
	var r *Registry
	c := r.Counter("hot")
	h := r.Histogram("hot_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		h.Observe(17)
		sp := h.Start()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestEnabledHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	h := r.Histogram("hot_ns")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(17)
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics allocated %.1f allocs/op, want 0", allocs)
	}
}

func TestSpanObservesElapsed(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("span_ns")
	sp := h.Start()
	time.Sleep(time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span count = %d, want 1", h.Count())
	}
	if h.Sum() < uint64(time.Millisecond) {
		t.Fatalf("span sum = %dns, want >= 1ms", h.Sum())
	}
}

// A sampled span stands for n spans: count, sum and its bucket grow by
// n, and a nil histogram's sample is inert.
func TestSampleObservesN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("sample_ns")
	sp := h.Sample(16)
	time.Sleep(time.Millisecond)
	sp.End()
	if h.Count() != 16 {
		t.Fatalf("count = %d, want 16", h.Count())
	}
	if h.Sum() < 16*uint64(time.Millisecond) || h.Sum()%16 != 0 {
		t.Fatalf("sum = %dns, want a multiple of 16 of at least 16ms", h.Sum())
	}
	snap := r.Snapshot().Histograms["sample_ns"]
	if len(snap.Buckets) != 1 || snap.Buckets[0].Count != 16 {
		t.Fatalf("buckets = %+v, want one bucket holding 16", snap.Buckets)
	}
	var nilH *Histogram
	nilH.Sample(16).End()
	nilH.ObserveN(5, 16)
}

func TestSnapshotFlattenAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("driver.messages").Add(10)
	r.Gauge("sim.cycles").Set(42)
	r.Histogram("sim.cycle_hook_ns").Observe(100)
	s := r.Snapshot()
	flat := s.Flatten()
	if flat["driver.messages"] != 10 || flat["sim.cycles"] != 42 {
		t.Fatalf("flatten = %v", flat)
	}
	if flat["sim.cycle_hook_ns.count"] != 1 || flat["sim.cycle_hook_ns.sum"] != 100 {
		t.Fatalf("flatten histogram = %v", flat)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Histogram("h").Observe(uint64(j))
				r.Gauge("g").Set(uint64(j))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func BenchmarkCounterEnabled(b *testing.B) {
	c := NewRegistry().Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterDisabled(b *testing.B) {
	var r *Registry
	c := r.Counter("c")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

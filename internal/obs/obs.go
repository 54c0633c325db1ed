// Package obs is the co-simulation observability layer: allocation-free
// counters, gauges and power-of-two latency histograms collected in a
// named Registry.
//
// The design goal is that a *disabled* registry costs nothing on the
// hot path: every lookup on a nil *Registry returns a nil metric, and
// every method on a nil metric is a no-op, so instrumented code resolves
// its metrics once at attach time and then calls Inc/Add/Observe
// unconditionally. With a live registry the update is a single atomic
// add — no locks, no allocations.
//
// Metric names are dotted strings, grouped by subsystem:
//
//	rsp.*    — GDB remote-protocol traffic (internal/gdb)
//	cosim.*  — GDB-scheme engine activity (internal/core)
//	driver.* — Driver-Kernel protocol activity (internal/core)
//	sim.*    — simulation-kernel activity (internal/sim)
//	iss.*    — guest execution (internal/iss)
//
// The full list lives in the README's "Observability" section.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Add adds d. No-op on a nil counter.
func (c *Counter) Add(d uint64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (set, not accumulated).
type Gauge struct{ v atomic.Uint64 }

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v uint64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by d. No-op on a nil gauge.
func (g *Gauge) Add(d uint64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Load returns the current value (0 for a nil gauge).
func (g *Gauge) Load() uint64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// NumBuckets is the number of histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
// Bucket 0 counts zeros.
const NumBuckets = 65

// Histogram accumulates value observations into power-of-two buckets —
// coarse but constant-time and allocation-free, which is what a
// per-cycle latency probe needs.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// Observe records one value. No-op on a nil histogram.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(v)].Add(1)
}

// ObserveN records v as n observations: it stands for n values of
// which one was measured (see Sample). No-op on a nil histogram.
func (h *Histogram) ObserveN(v, n uint64) {
	if h == nil {
		return
	}
	h.count.Add(n)
	h.sum.Add(v * n)
	h.buckets[bits.Len64(v)].Add(n)
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Start begins a wall-clock span whose duration (in nanoseconds) is
// observed into the histogram when End is called. On a nil histogram
// the returned span is inert and End is free — timing is skipped
// entirely, not merely discarded.
func (h *Histogram) Start() Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now(), n: 1}
}

// Sample is Start for a span that stands for n spans of which only
// this one is timed: End observes its duration n times (ObserveN). A
// caller that times a deterministic 1-in-n sample of its spans keeps
// the histogram's count, sum and bucket shares estimates of the
// totals, at one clock-read pair per n spans.
func (h *Histogram) Sample(n uint64) Span {
	if h == nil {
		return Span{}
	}
	return Span{h: h, t0: time.Now(), n: n}
}

// Span is an in-flight duration measurement; see Histogram.Start.
type Span struct {
	h  *Histogram
	t0 time.Time
	n  uint64 // observations the span stands for
}

// End records the span's elapsed nanoseconds.
func (s Span) End() {
	if s.h == nil {
		return
	}
	s.h.ObserveN(uint64(time.Since(s.t0)), s.n)
}

// Bucket is one non-empty histogram bucket in a snapshot. Le is the
// largest value the bucket can hold.
type Bucket struct {
	Le    uint64 `json:"le"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Max     uint64   `json:"max"` // upper bound of the highest occupied bucket
	Buckets []Bucket `json:"buckets,omitempty"`
}

// snapshot copies the histogram's occupied buckets.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := 0; i < NumBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := bucketLe(i)
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
		s.Max = le
	}
	return s
}

// bucketLe returns the inclusive upper bound of bucket i.
func bucketLe(i int) uint64 {
	if i == 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use and safe on a nil receiver (lookups return nil metrics,
// Snapshot returns a zero snapshot), so a disabled registry needs no
// guards at the instrumentation sites.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Returns nil (a valid no-op counter) when r is nil.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
// Returns nil when r is nil.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil when r is nil.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every metric in a registry.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]uint64            `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current state. Safe on nil (returns a
// zero snapshot).
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Flatten folds the snapshot into a single name->value map: counters
// and gauges verbatim, histograms as name.count / name.sum / name.max.
// This is the form harness.Metrics and the benchtab JSON report embed.
func (s Snapshot) Flatten() map[string]uint64 {
	out := make(map[string]uint64, len(s.Counters)+len(s.Gauges)+3*len(s.Histograms))
	for name, v := range s.Counters {
		out[name] = v
	}
	for name, v := range s.Gauges {
		out[name] = v
	}
	for name, h := range s.Histograms {
		out[name+".count"] = h.Count
		out[name+".sum"] = h.Sum
		out[name+".max"] = h.Max
	}
	return out
}

package main

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// TestSmoke runs the whole benchmark at smoke size — a warm-up rep, two
// 200us reps and one traced pair per workload, twelve cosimd sessions —
// and checks that every metric BENCHMARK.json names is reported with
// its unit, that no op failed, and that the summary line has the
// benchmark's shape.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 1, smoke: true, trace: true}
	for _, w := range workloads(o) {
		r, err := runWorkload(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if ff := r.Metrics["fail_frac"]; r.Failed != 0 || ff.Value == nil || *ff.Value != 0 {
			t.Errorf("%s: %d of %d ops failed: %q", w.name, r.Failed, r.Attempted, r.Failures)
		}
		for _, bm := range append(spec.EndToEnd, spec.PerLayer...) {
			m, ok := r.Metrics[bm.Name]
			if !ok || m.Unit != bm.Unit {
				t.Errorf("%s: metric %s = %+v, want it in %s", w.name, bm.Name, m, bm.Unit)
			}
		}
		for _, trace := range []bool{false, true} {
			line, err := spec.summary(r, trace)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			var got map[string]json.RawMessage
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("%s: summary %s: %v", w.name, line, err)
			}
			var keys []string
			for k := range got {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
				t.Errorf("%s: summary keys %v, want %v", w.name, keys, want)
			}
		}
	}
}

package harness

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"cosim/internal/core"
	"cosim/internal/router"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Spec{
		Scheme:           "driver-kernel",
		Transport:        "ring",
		SimTime:          "10ms",
		ClockPeriod:      "100ns",
		CPUPeriod:        "10ns",
		InstrPerCycle:    8,
		CPUs:             2,
		Delay:            "20us",
		PayloadWords:     4,
		ErrorRate:        0.25,
		MulticastRate:    0.5,
		FifoDepth:        8,
		PacketsPerSource: 100,
		Seed:             42,
		NoDecodeCache:    true,
		Quantum:          "100ns",
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mutated the spec:\n  orig %+v\n  back %+v", orig, back)
	}
}

func TestSpecParamsMaterialisation(t *testing.T) {
	spec := Spec{Scheme: "driver-kernel", Transport: "ring", SimTime: "10ms", Delay: "20us", CPUs: 2, Seed: 7}
	p, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if p.Scheme != DriverKernel || p.CPUs != 2 || p.Seed != 7 {
		t.Fatalf("materialised params %+v", p)
	}
	if p.SimTime != 10*sim.MS || p.Delay != 20*sim.US {
		t.Fatalf("durations %v/%v, want 10ms/20us", p.SimTime, p.Delay)
	}
	if p.Transport.Name() != "ring" {
		t.Fatalf("transport %q, want ring", p.Transport.Name())
	}
	// Zero fields stay zero so Run's defaults apply on the executing
	// side.
	if p.ClockPeriod != 0 || p.CPUPeriod != 0 {
		t.Fatalf("unset durations materialised non-zero: %+v", p)
	}
	// The defaults view is what admission control quotas against.
	if d := p.WithDefaults(); d.ClockPeriod != 100*sim.NS || d.CPUs != 2 {
		t.Fatalf("defaults view %+v", d)
	}
	// The defaults view is also the one place a nil transport becomes
	// the pipe backend.
	if tr := (Params{}).WithDefaults().Transport; tr != transport.Pipe {
		t.Fatalf("default transport %v, want transport.Pipe", tr)
	}
}

// TestSpecParamsRoundTrip: Params → Spec → Params is lossless for every
// wire-safe field.
func TestSpecParamsRoundTrip(t *testing.T) {
	orig := Params{
		Scheme: GDBKernel, Transport: core.TransportTCP,
		SimTime: 2 * sim.MS, CPUPeriod: 10 * sim.NS,
		CPUs: 3, Delay: 5 * sim.US, PayloadWords: 6,
		ErrorRate: 0.1, FifoDepth: 4, PacketsPerSource: 9, Seed: 11,
		DMI: true,
	}
	back, err := SpecFromParams(orig).Params()
	if err != nil {
		t.Fatal(err)
	}
	// The transport interface value survives by name.
	if back.Transport.Name() != "tcp" {
		t.Fatalf("transport %q", back.Transport.Name())
	}
	orig.Transport, back.Transport = nil, nil
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mutated params:\n  orig %+v\n  back %+v", orig, back)
	}
}

func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
		want string
	}{
		{"missing-scheme", Spec{}, "missing scheme"},
		{"bad-scheme", Spec{Scheme: "quantum"}, "unknown scheme"},
		{"bad-transport", Spec{Scheme: "driver-kernel", Transport: "smoke-signals"}, "unknown transport"},
		// The unix backend is gone; the error lists what remains.
		{"unix-transport", Spec{Scheme: "driver-kernel", Transport: "unix"}, "want tcp, ring or pipe"},
		{"bad-duration", Spec{Scheme: "driver-kernel", SimTime: "10 parsecs"}, "bad sim_time"},
		// Unchecked, 18446745 s wraps to ~0.93 s and would slip under a
		// server's simulated-time quota.
		{"wrapped-duration", Spec{Scheme: "gdb-wrapper", SimTime: "18446745s"}, "bad sim_time"},
		{"negative-duration", Spec{Scheme: "gdb-wrapper", SimTime: "-1.0ms"}, "bad sim_time"},
		{"bad-retired-duration", Spec{Scheme: "driver-kernel", Quantum: "soon"}, "bad quantum"},
		{"bad-rate", Spec{Scheme: "driver-kernel", ErrorRate: 1.5}, "outside [0,1]"},
		{"negative-cpus", Spec{Scheme: "driver-kernel", CPUs: -1}, "negative"},
		// A 1ps clock has no half period: NewClock panics on it.
		{"clock-period-1ps", Spec{Scheme: "gdb-wrapper", ClockPeriod: "1ps"}, "clock_period 1ps is below 2ps"},
		{"clock-period-sub-ps", Spec{Scheme: "gdb-wrapper", ClockPeriod: "0.001ns"}, "clock_period"},
		// An odd period's half periods would truncate to a faster clock.
		{"clock-period-odd", Spec{Scheme: "gdb-wrapper", ClockPeriod: "3ps"}, "clock_period 3ps is an odd number of picoseconds"},
		{"clock-period-odd-1001ps", Spec{Scheme: "gdb-wrapper", ClockPeriod: "1001ps"}, "clock_period"},
		// 1.001ns parses exactly, as an odd 1001ps.
		{"clock-period-odd-1.001ns", Spec{Scheme: "gdb-wrapper", ClockPeriod: "1.001ns"}, "clock_period 1001ps is an odd number of picoseconds"},
		// A digit finer than 1ps is an error, not a zero that would
		// silently select the default.
		{"clock-period-sub-ps-digit", Spec{Scheme: "gdb-kernel", ClockPeriod: "0.0001ns"}, "bad clock_period"},
		{"sim-time-sub-ps-digit", Spec{Scheme: "gdb-kernel", SimTime: "0.0004ns"}, "bad sim_time"},
		// The producer would cap the payload at router.MaxPayloadWords
		// and run a workload nobody asked for.
		{"payload-words-above-max", Spec{Scheme: "gdb-kernel", PayloadWords: 100}, "payload_words 100"},
	} {
		err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	if err := (Spec{Scheme: "gdb-wrapper", CPUs: 2}).Validate(); !errors.Is(err, ErrSingleCPUScheme) {
		t.Errorf("multi-CPU wrapper: %v, want ErrSingleCPUScheme", err)
	}
	if err := (Spec{Scheme: "driver-kernel"}).Validate(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
	for _, cp := range []string{"0", "2ps", "100ns"} {
		if err := (Spec{Scheme: "gdb-wrapper", ClockPeriod: cp}).Validate(); err != nil {
			t.Errorf("clock_period %q rejected: %v", cp, err)
		}
	}
	// The kernel schemes build no clock, so any parseable period passes.
	for _, scheme := range []string{"gdb-kernel", "driver-kernel"} {
		for _, cp := range []string{"1ps", "3ps", "1.001ns"} {
			if err := (Spec{Scheme: scheme, ClockPeriod: cp}).Validate(); err != nil {
				t.Errorf("%s: clock_period %q rejected: %v", scheme, cp, err)
			}
		}
	}
	if err := (Spec{Scheme: "gdb-kernel", PayloadWords: router.MaxPayloadWords}).Validate(); err != nil {
		t.Errorf("payload_words %d rejected: %v", router.MaxPayloadWords, err)
	}
}

// TestRunRejectsClockPeriodBelow2ps: Params callers bypass Validate, so
// RunContext itself refuses a period with no half for the GDB-Wrapper
// instead of panicking in NewClock. The kernel schemes build no clock
// and run.
func TestRunRejectsClockPeriodBelow2ps(t *testing.T) {
	checkClockPeriodOnlyForWrapper(t, 1, "clock period")
}

// TestRunRejectsOddClockPeriod: an odd period has no whole-picosecond
// half, so RunContext refuses it for the GDB-Wrapper rather than run a
// clock faster than the one asked for. The kernel schemes build no
// clock and run.
func TestRunRejectsOddClockPeriod(t *testing.T) {
	checkClockPeriodOnlyForWrapper(t, 1001, "clock period 1001ps is an odd number")
}

// checkClockPeriodOnlyForWrapper runs every scheme with a clock period
// that has no whole-picosecond half: the wrapper must fail naming it,
// the kernel schemes must run cleanly.
func checkClockPeriodOnlyForWrapper(t *testing.T, period sim.Time, want string) {
	t.Helper()
	for _, scheme := range []Scheme{GDBWrapper, GDBKernel, DriverKernel} {
		res, err := Run(Params{Scheme: scheme, Transport: core.TransportRing, ClockPeriod: period, SimTime: 10 * sim.US})
		if scheme == GDBWrapper {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%v: Run with a %v clock = (%v, %v), want an error naming %q", scheme, period, res, err, want)
			}
			continue
		}
		if err != nil || res.Simulated != 10*sim.US {
			t.Errorf("%v ignores the clock period, but Run with a %v clock = (%v, %v)", scheme, period, res, err)
		}
	}
}

// TestRunRejectsOversizedPayload: Params callers bypass Validate, so
// RunContext itself refuses a payload the producers would silently cap.
func TestRunRejectsOversizedPayload(t *testing.T) {
	for _, scheme := range []Scheme{GDBWrapper, GDBKernel, DriverKernel} {
		res, err := Run(Params{Scheme: scheme, Transport: core.TransportRing, PayloadWords: router.MaxPayloadWords + 1, SimTime: 10 * sim.US})
		if err == nil || !strings.Contains(err.Error(), "payload words 61") {
			t.Errorf("%v: Run with 61 payload words = (%v, %v), want a payload words error", scheme, res, err)
		}
	}
}

// TestSpecZeroDurationCanonicalises pins the zero-spelling contract:
// every explicit zero duration ("0", "0ns", ...) is accepted, decodes
// to the zero value (meaning "use the run default", same as omitting
// the field), and one Spec -> Params -> Spec trip canonicalises it to
// the omitted form — after which the round trip is the identity.
func TestSpecZeroDurationCanonicalises(t *testing.T) {
	for _, zero := range []string{"0", "0ps", "0ns", "0us", "0ms", "0s"} {
		spec := Spec{
			Scheme:  "driver-kernel",
			SimTime: zero, ClockPeriod: zero, CPUPeriod: zero,
			Delay: zero, Quantum: zero,
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("zero spelling %q rejected: %v", zero, err)
		}
		p, err := spec.Params()
		if err != nil {
			t.Fatalf("zero spelling %q: %v", zero, err)
		}
		if p.SimTime != 0 || p.ClockPeriod != 0 || p.CPUPeriod != 0 || p.Delay != 0 {
			t.Fatalf("zero spelling %q materialised non-zero: %+v", zero, p)
		}
		canon := SpecFromParams(p)
		if canon.SimTime != "" || canon.ClockPeriod != "" || canon.CPUPeriod != "" || canon.Delay != "" {
			t.Fatalf("zero spelling %q did not canonicalise to omitted: %+v", zero, canon)
		}
		p2, err := canon.Params()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(SpecFromParams(p2), canon) {
			t.Fatalf("canonical form is not a round-trip fixed point: %+v", canon)
		}
	}
}

// TestDecodeSpecRejectsUnknownFields: a typo in a session request must
// fail loudly, not silently run the defaults. So must skew_bound: the
// Driver-Kernel no longer has a skew bound to set.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"scheme": "driver-kernel", "simtime": "1ms"}`,
		`{"scheme": "driver-kernel", "skew_bound": "1us"}`,
	} {
		_, err := DecodeSpec([]byte(body))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Fatalf("DecodeSpec(%s) = %v, want unknown-field error", body, err)
		}
	}
}

// TestDecodeSpecIgnoresRetiredField: specs written while message
// coalescing or temporal decoupling existed still decode, and the
// retired fields change nothing about the run they describe.
func TestDecodeSpecIgnoresRetiredField(t *testing.T) {
	params := func(body string) Params {
		t.Helper()
		s, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatalf("DecodeSpec(%s): %v", body, err)
		}
		p, err := s.Params()
		if err != nil {
			t.Fatalf("Params(%s): %v", body, err)
		}
		return p
	}
	without := params(`{"scheme": "driver-kernel", "dmi": true}`)
	for _, body := range []string{
		`{"scheme": "driver-kernel", "dmi": true, "coalesce": true}`,
		`{"scheme": "driver-kernel", "dmi": true, "quantum": "100ns"}`,
	} {
		if with := params(body); !reflect.DeepEqual(with, without) {
			t.Fatalf("%s changed the params:\n with    %+v\n without %+v", body, with, without)
		}
	}
}

// trailingDataSpecs are bodies whose first JSON value is a valid spec
// but which carry more than whitespace after it.
var trailingDataSpecs = []string{
	`{"scheme":"gdb-wrapper"}{"scheme":"bogus"}`,
	`{"scheme":"gdb-wrapper"} junk`,
}

// TestDecodeSpecRejectsTrailingData: a body is exactly one spec; a
// second value or garbage after the first must not be ignored.
func TestDecodeSpecRejectsTrailingData(t *testing.T) {
	for _, in := range trailingDataSpecs {
		if _, err := DecodeSpec([]byte(in)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("DecodeSpec(%s) = %v, want trailing-data error", in, err)
		}
	}
	if _, err := DecodeSpec([]byte("{\"scheme\":\"gdb-wrapper\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// FuzzDecodeSpec feeds arbitrary bytes to DecodeSpec, the decoder of
// the cosimd session-request body. It must never panic, and a spec it
// accepts must survive json.Marshal and a second DecodeSpec unchanged.
func FuzzDecodeSpec(f *testing.F) {
	for _, seed := range append([]string{
		`{"scheme": "driver-kernel", "simtime": "1ms"}`,
		`{"scheme": "driver-kernel", "transport": "ring", "sim_time": "10ms", "cpus": 2, "quantum": "100ns"}`,
		`{"scheme": "gdb-wrapper", "cpus": 2}`,
		`{"scheme": "gdb-kernel", "error_rate": 0.25, "multicast_rate": 0.5, "seed": 42}`,
		`{"scheme": "driver-kernel", "sim_time": "0ns", "delay": "0", "dmi": true, "coalesce": true}`,
		`{"scheme": "driver-kernel", "sim_time": "10 parsecs"}`,
		`{"scheme": "gdb-kernel", "clock_period": "1ps"}`,
		`{}`,
	}, trailingDataSpecs...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", s, err)
		}
		back, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		if back != s {
			t.Fatalf("round trip mutated the spec:\n  first  %+v\n  second %+v", s, back)
		}
	})
}

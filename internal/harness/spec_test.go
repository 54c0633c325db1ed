package harness

import (
	"encoding/json"
	"errors"
	"flag"
	"math"
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
		InstrPerCycle:    8,
		CPUs:             2,
		Delay:            "20us",
		PayloadWords:     4,
		ErrorRate:        0.25,
		MulticastRate:    0.5,
		FifoDepth:        8,
		PacketsPerSource: 100,
		Seed:             42,
		Quantum:          "100ns",
	}
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, p, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mutated the spec:\n  orig %+v\n  back %+v", orig, back)
	}
	requireParamsOf(t, back, p)
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
	if p.PayloadWords != 0 || p.FifoDepth != 0 {
		t.Fatalf("unset fields materialised non-zero: %+v", p)
	}
	// The defaults view is what admission control quotas against.
	if d := p.WithDefaults(); d.PayloadWords != 4 || d.CPUs != 2 {
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
		SimTime: 2 * sim.MS, CPUs: 3, Delay: 5 * sim.US, PayloadWords: 6,
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

// TestSpecValidate: Spec.Params rejects a spec whose names or
// durations do not resolve, and every other rule is Params.check's, so
// it fails the same way through Spec.Params and through Run.
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
		{"bad-delay", Spec{Scheme: "gdb-kernel", Delay: "soon"}, "bad delay"},
		{"bad-retired-duration", Spec{Scheme: "driver-kernel", Quantum: "soon"}, "bad quantum"},
		// A digit finer than 1ps is an error, not a zero that would
		// silently select the default.
		{"sim-time-sub-ps-digit", Spec{Scheme: "gdb-kernel", SimTime: "0.0004ns"}, "bad sim_time"},
	} {
		if _, err := tc.spec.Params(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Params() = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	for _, tc := range []struct {
		name string
		set  func(*Params)
		want string
	}{
		// Unchecked, a negative CPU count panics every scheme's set-up.
		{"negative-cpus", func(p *Params) { p.CPUs = -1 }, "cpus -1 is negative"},
		{"negative-payload", func(p *Params) { p.PayloadWords = -1 }, "payload_words -1 is negative"},
		{"negative-fifo", func(p *Params) { p.FifoDepth = -1 }, "fifo_depth -1 is negative"},
		// The producer would cap the payload at router.MaxPayloadWords
		// and run a workload nobody asked for.
		{"payload-words-above-max", func(p *Params) { p.PayloadWords = 100 }, "payload_words 100 above the maximum of 60"},
		// Unchecked, a rate above 1 corrupts every packet.
		{"error-rate-above-1", func(p *Params) { p.ErrorRate = 1.5 }, "error_rate 1.5 outside [0,1]"},
		{"error-rate-nan", func(p *Params) { p.ErrorRate = math.NaN() }, "error_rate NaN outside [0,1]"},
		{"multicast-rate-negative", func(p *Params) { p.MulticastRate = -0.5 }, "multicast_rate -0.5 outside [0,1]"},
	} {
		for _, scheme := range Schemes {
			p := Params{Scheme: scheme, Transport: core.TransportRing, SimTime: 10 * sim.US}
			tc.set(&p)
			checkBothDoors(t, tc.name, p, tc.want)
		}
	}
	p := Params{Scheme: GDBWrapper, Transport: core.TransportRing, CPUs: 2, SimTime: 10 * sim.US}
	checkBothDoors(t, "multi-cpu-wrapper", p, "GDB-Wrapper scheme drives a single CPU: cpus 2 needs gdb-kernel or driver-kernel")
	if _, err := SpecFromParams(p).Params(); !errors.Is(err, ErrSingleCPUScheme) {
		t.Errorf("multi-CPU wrapper: %v, want ErrSingleCPUScheme", err)
	}
	if _, err := Run(Params{Scheme: Scheme(7)}); err == nil || err.Error() != "harness: unknown scheme Scheme(7)" {
		t.Errorf("Run with an unknown scheme = %v", err)
	}

	// NaN parses as a float flag, and only the range check stops it.
	spec := Spec{Scheme: "gdb-kernel"}
	fs := flag.NewFlagSet("cosim", flag.ContinueOnError)
	spec.RegisterFlags(fs)
	if err := fs.Parse([]string{"-errors", "NaN"}); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Params(); err == nil || !strings.Contains(err.Error(), "error_rate NaN") {
		t.Errorf("-errors NaN: Params() = %v, want an error_rate error", err)
	}

	if _, err := (Spec{Scheme: "driver-kernel"}).Params(); err != nil {
		t.Errorf("minimal spec rejected: %v", err)
	}
	if _, err := (Spec{Scheme: "gdb-kernel", PayloadWords: router.MaxPayloadWords}).Params(); err != nil {
		t.Errorf("payload_words %d rejected: %v", router.MaxPayloadWords, err)
	}
}

// checkBothDoors requires p to fail with want after the "spec: " prefix
// through Spec.Params and after the "harness: " prefix through Run.
func checkBothDoors(t *testing.T, name string, p Params, want string) {
	t.Helper()
	if _, err := SpecFromParams(p).Params(); err == nil || err.Error() != "spec: "+want {
		t.Errorf("%s: %v Spec.Params() = %v, want %q", name, p.Scheme, err, "spec: "+want)
	}
	if res, err := Run(p); err == nil || err.Error() != "harness: "+want {
		t.Errorf("%s: %v Run = (%v, %v), want %q", name, p.Scheme, res, err, "harness: "+want)
	}
}

// TestSpecFlags: RegisterFlags gives each Spec key exactly one flag,
// unless the key is a per-command sweep axis or retired, with the
// defaults cosim and benchtab have always had.
func TestSpecFlags(t *testing.T) {
	axes := map[string]bool{"scheme": true, "transport": true, "sim_time": true}
	retired := map[string]bool{"coalesce": true, "quantum": true}

	// Map each flag to the one key it sets by setting it alone.
	var zero Spec
	flagKey := map[string]string{}
	probe := flag.NewFlagSet("probe", flag.ContinueOnError)
	zero.RegisterFlags(probe)
	probe.VisitAll(func(f *flag.Flag) {
		var s Spec
		fs := flag.NewFlagSet(f.Name, flag.ContinueOnError)
		s.RegisterFlags(fs)
		before := s
		if fs.Set(f.Name, "true") != nil && fs.Set(f.Name, "3") != nil {
			t.Fatalf("-%s takes neither true nor 3", f.Name)
		}
		var changed []string
		vb, va := reflect.ValueOf(before), reflect.ValueOf(s)
		for i := 0; i < vb.NumField(); i++ {
			if vb.Field(i).Interface() != va.Field(i).Interface() {
				changed = append(changed, specKey(reflect.TypeOf(s).Field(i)))
			}
		}
		if len(changed) != 1 {
			t.Fatalf("-%s sets keys %v, want exactly one", f.Name, changed)
		}
		flagKey[f.Name] = changed[0]
	})
	keyFlags := map[string][]string{}
	for name, key := range flagKey {
		keyFlags[key] = append(keyFlags[key], name)
	}
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		key := specKey(st.Field(i))
		n := len(keyFlags[key])
		if axes[key] {
			n++
		}
		if retired[key] {
			n++
		}
		if n != 1 {
			t.Errorf("key %s: flags %v, axis %v, retired %v; want exactly one of the three", key, keyFlags[key], axes[key], retired[key])
		}
	}

	// The registered defaults are the CLIs' defaults.
	if want := (Spec{Delay: "20us", Seed: 1, CPUs: 1, PayloadWords: 4, FifoDepth: 8}); zero != want {
		t.Errorf("registered defaults %+v, want %+v", zero, want)
	}

	// A full command line reaches every Params field it names.
	spec := Spec{Scheme: "driver-kernel"}
	fs := flag.NewFlagSet("cosim", flag.ContinueOnError)
	spec.RegisterFlags(fs)
	if err := fs.Parse([]string{
		"-delay", "5us", "-payload", "6", "-errors", "0.25", "-multicast", "0.5",
		"-fifo", "4", "-packets", "9", "-seed", "11", "-cpus", "2",
		"-instrpercycle", "3", "-dmi",
	}); err != nil {
		t.Fatal(err)
	}
	got, err := spec.Params()
	if err != nil {
		t.Fatal(err)
	}
	want := Params{
		Scheme: DriverKernel, Delay: 5 * sim.US, PayloadWords: 6, ErrorRate: 0.25,
		MulticastRate: 0.5, FifoDepth: 4, PacketsPerSource: 9, Seed: 11, CPUs: 2,
		InstrPerCycle: 3, DMI: true,
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); !reflect.DeepEqual(g, w) {
			t.Errorf("Params.%s = %v, want %v", gv.Type().Field(i).Name, g, w)
		}
	}
}

// specKey is a Spec field's JSON key.
func specKey(f reflect.StructField) string {
	key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return key
}

// TestRunRejectsOversizedPayload: Run applies the same check as
// Spec.Params, so it refuses a payload the producers would silently cap.
func TestRunRejectsOversizedPayload(t *testing.T) {
	for _, scheme := range []Scheme{GDBWrapper, GDBKernel, DriverKernel} {
		res, err := Run(Params{Scheme: scheme, Transport: core.TransportRing, PayloadWords: router.MaxPayloadWords + 1, SimTime: 10 * sim.US})
		if err == nil || !strings.Contains(err.Error(), "payload_words 61") {
			t.Errorf("%v: Run with 61 payload words = (%v, %v), want a payload_words error", scheme, res, err)
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
			SimTime: zero, Delay: zero, Quantum: zero,
		}
		p, err := spec.Params()
		if err != nil {
			t.Fatalf("zero spelling %q rejected: %v", zero, err)
		}
		if p.SimTime != 0 || p.Delay != 0 {
			t.Fatalf("zero spelling %q materialised non-zero: %+v", zero, p)
		}
		canon := SpecFromParams(p)
		if canon.SimTime != "" || canon.Delay != "" {
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
// Driver-Kernel no longer has a skew bound to set; nor clock_period and
// cpu_period: the periods are fixed (WrapperClock, CPUPeriod); nor
// no_decode_cache: the ISS has one engine, with no cache to disable.
func TestDecodeSpecRejectsUnknownFields(t *testing.T) {
	for _, body := range []string{
		`{"scheme": "driver-kernel", "simtime": "1ms"}`,
		`{"scheme": "driver-kernel", "skew_bound": "1us"}`,
		`{"scheme": "gdb-wrapper", "clock_period": "100ns"}`,
		`{"scheme": "gdb-kernel", "cpu_period": "10ns"}`,
		`{"scheme": "driver-kernel", "no_decode_cache": true}`,
	} {
		_, _, err := DecodeSpec([]byte(body))
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
		s, p, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatalf("DecodeSpec(%s): %v", body, err)
		}
		requireParamsOf(t, s, p)
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
		if _, _, err := DecodeSpec([]byte(in)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("DecodeSpec(%s) = %v, want trailing-data error", in, err)
		}
	}
	if _, _, err := DecodeSpec([]byte("{\"scheme\":\"gdb-wrapper\"}\n\t ")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// requireParamsOf fails unless p is what s materialises to: the Params
// DecodeSpec returns are the ones Spec.Params builds.
func requireParamsOf(t *testing.T, s Spec, p Params) {
	t.Helper()
	want, err := s.Params()
	if err != nil {
		t.Fatalf("decoded spec %+v does not materialise: %v", s, err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("DecodeSpec returned params %+v, spec.Params() = %+v", p, want)
	}
}

// FuzzDecodeSpec feeds arbitrary bytes to DecodeSpec, the decoder of
// the cosimd session-request body. It must never panic, a spec it
// accepts must survive json.Marshal and a second DecodeSpec unchanged,
// and the Params it returns must be the spec's own Spec.Params.
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
		s, p, err := DecodeSpec(data)
		if err != nil {
			return
		}
		requireParamsOf(t, s, p)
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec %+v does not marshal: %v", s, err)
		}
		back, p, err := DecodeSpec(enc)
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		requireParamsOf(t, back, p)
		if back != s {
			t.Fatalf("round trip mutated the spec:\n  first  %+v\n  second %+v", s, back)
		}
	})
}

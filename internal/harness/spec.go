package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"cosim/internal/router"
	"cosim/internal/sim"
	"cosim/internal/transport"
)

// Spec is the wire-serializable form of Params: the subset of a run's
// configuration that can travel over an API boundary. Params holds live
// process resources — an io.Writer trace sink, a *core.Journal, an
// *obs.Registry, a core.Transport interface value — none of which
// survive a JSON round trip, so cosimd sessions, benchtab's load-driver
// mode and the CLI flag surfaces all speak Spec and materialise Params
// on the executing side.
//
// Durations are sim.ParseTime strings ("10ms", "1.5us"); the transport
// is named, resolved through transport.Parse on decode. Zero-valued
// fields mean "use the run defaults" — Params.withDefaults applies them
// on the executing side, so a Spec decoded from `{"scheme":"driver-kernel"}`
// is a complete, runnable request.
type Spec struct {
	// Scheme is the co-simulation scheme name (ParseScheme spelling:
	// "gdb-wrapper", "gdb-kernel", "driver-kernel"). Required.
	Scheme string `json:"scheme"`
	// Transport names the IPC backend (transport.Parse spelling: "tcp",
	// "ring", "pipe"); empty selects the pipe default.
	Transport string `json:"transport,omitempty"`

	SimTime       string `json:"sim_time,omitempty"`
	ClockPeriod   string `json:"clock_period,omitempty"`
	CPUPeriod     string `json:"cpu_period,omitempty"`
	InstrPerCycle uint64 `json:"instr_per_cycle,omitempty"`
	CPUs          int    `json:"cpus,omitempty"`

	// Traffic shape.
	Delay            string  `json:"delay,omitempty"`
	PayloadWords     int     `json:"payload_words,omitempty"`
	ErrorRate        float64 `json:"error_rate,omitempty"`
	MulticastRate    float64 `json:"multicast_rate,omitempty"`
	FifoDepth        int     `json:"fifo_depth,omitempty"`
	PacketsPerSource uint64  `json:"packets_per_source,omitempty"`
	Seed             int64   `json:"seed,omitempty"`

	NoDecodeCache bool `json:"no_decode_cache,omitempty"`

	// DMI grants Driver-Kernel guests direct memory windows over their
	// bound ports (see README "Memory fast path").
	DMI bool `json:"dmi,omitempty"`
	// Coalesce is inert: message coalescing was removed. The field
	// stays so specs written with "coalesce" still decode; its value is
	// ignored and does not reach Params.
	Coalesce bool `json:"coalesce,omitempty"`

	// Quantum is inert: temporal decoupling was removed. The field
	// stays so specs written with "quantum" still decode; Validate
	// still requires a well-formed duration, but the value is ignored
	// and does not reach Params.
	Quantum string `json:"quantum,omitempty"`
}

// timeField parses one optional duration field. Empty decodes to zero,
// meaning "use the run default"; so does any explicit zero spelling
// ("0", "0ns", ...), which Params.withDefaults cannot tell apart from
// an omitted field. SpecFromParams re-encodes both as the omitted form,
// so one round trip canonicalises every zero spelling to empty and a
// second trip is the identity.
func timeField(name, v string) (sim.Time, error) {
	if v == "" {
		return 0, nil
	}
	t, err := sim.ParseTime(v)
	if err != nil {
		return 0, fmt.Errorf("spec: bad %s: %w", name, err)
	}
	return t, nil
}

// rateField checks one injection-rate field.
// badClockPeriod says why a clock period cannot be split into two equal
// half periods of whole picoseconds, or returns "" when it can.
func badClockPeriod(p sim.Time) string {
	switch {
	case p < 2:
		return "is below 2ps"
	case p%2 != 0:
		return "is an odd number of picoseconds"
	}
	return ""
}

func rateField(name string, v float64) error {
	if v < 0 || v > 1 {
		return fmt.Errorf("spec: %s %v outside [0,1]", name, v)
	}
	return nil
}

// Validate checks the spec without materialising it: the scheme and
// transport names resolve, every duration parses, a GDB-Wrapper's
// clock period is zero or an even number of picoseconds of at least
// 2ps, rates are in [0,1],
// counts are non-negative, payload_words is at most
// router.MaxPayloadWords, and a multi-CPU request names a scheme that
// can drive it (ErrSingleCPUScheme otherwise, testable with errors.Is).
func (s Spec) Validate() error {
	if s.Scheme == "" {
		return fmt.Errorf("spec: missing scheme")
	}
	scheme, err := ParseScheme(s.Scheme)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	if s.Transport != "" {
		if _, err := transport.Parse(s.Transport); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
	}
	for _, f := range []struct{ name, v string }{
		{"sim_time", s.SimTime}, {"clock_period", s.ClockPeriod},
		{"cpu_period", s.CPUPeriod}, {"delay", s.Delay},
		{"quantum", s.Quantum},
	} {
		if _, err := timeField(f.name, f.v); err != nil {
			return err
		}
	}
	// Zero means the default; any other period is split into two edges
	// of the wrapper's clock, each at least 1ps long. The kernel schemes
	// build no clock and ignore the period.
	if cp, _ := timeField("clock_period", s.ClockPeriod); cp != 0 && scheme == GDBWrapper {
		if why := badClockPeriod(cp); why != "" {
			return fmt.Errorf("spec: clock_period %v %s", cp, why)
		}
	}
	if err := rateField("error_rate", s.ErrorRate); err != nil {
		return err
	}
	if err := rateField("multicast_rate", s.MulticastRate); err != nil {
		return err
	}
	if s.CPUs < 0 || s.PayloadWords < 0 || s.FifoDepth < 0 {
		return fmt.Errorf("spec: negative cpus/payload_words/fifo_depth")
	}
	if s.PayloadWords > router.MaxPayloadWords {
		return fmt.Errorf("spec: payload_words %d above the maximum of %d", s.PayloadWords, router.MaxPayloadWords)
	}
	if s.CPUs > 1 && !scheme.SupportsMultiCPU() {
		return fmt.Errorf("spec: %v %w", scheme, ErrSingleCPUScheme)
	}
	return nil
}

// Params materialises the spec into runnable Params: names are resolved
// (scheme via ParseScheme, transport via transport.Parse), duration
// strings are parsed, and zero fields stay zero so Run applies the
// usual defaults. The non-serializable Params fields (Trace, Journal,
// Obs) are left nil for the caller to attach.
func (s Spec) Params() (Params, error) {
	if err := s.Validate(); err != nil {
		return Params{}, err
	}
	scheme, _ := ParseScheme(s.Scheme)
	p := Params{
		Scheme:           scheme,
		InstrPerCycle:    s.InstrPerCycle,
		CPUs:             s.CPUs,
		PayloadWords:     s.PayloadWords,
		ErrorRate:        s.ErrorRate,
		MulticastRate:    s.MulticastRate,
		FifoDepth:        s.FifoDepth,
		PacketsPerSource: s.PacketsPerSource,
		Seed:             s.Seed,
		NoDecodeCache:    s.NoDecodeCache,
		DMI:              s.DMI,
	}
	if s.Transport != "" {
		tr, err := transport.Parse(s.Transport)
		if err != nil {
			return Params{}, fmt.Errorf("spec: %w", err)
		}
		p.Transport = tr
	}
	var err error
	if p.SimTime, err = timeField("sim_time", s.SimTime); err != nil {
		return Params{}, err
	}
	if p.ClockPeriod, err = timeField("clock_period", s.ClockPeriod); err != nil {
		return Params{}, err
	}
	if p.CPUPeriod, err = timeField("cpu_period", s.CPUPeriod); err != nil {
		return Params{}, err
	}
	if p.Delay, err = timeField("delay", s.Delay); err != nil {
		return Params{}, err
	}
	return p, nil
}

// SpecFromParams projects Params onto its wire form, dropping the
// process-local fields (Trace, Journal, Obs). Zero durations stay empty
// strings so the round trip preserves "use the default".
func SpecFromParams(p Params) Spec {
	timeStr := func(t sim.Time) string {
		if t == 0 {
			return ""
		}
		return t.String()
	}
	s := Spec{
		Scheme:           p.Scheme.CoreName(),
		SimTime:          timeStr(p.SimTime),
		ClockPeriod:      timeStr(p.ClockPeriod),
		CPUPeriod:        timeStr(p.CPUPeriod),
		InstrPerCycle:    p.InstrPerCycle,
		CPUs:             p.CPUs,
		Delay:            timeStr(p.Delay),
		PayloadWords:     p.PayloadWords,
		ErrorRate:        p.ErrorRate,
		MulticastRate:    p.MulticastRate,
		FifoDepth:        p.FifoDepth,
		PacketsPerSource: p.PacketsPerSource,
		Seed:             p.Seed,
		NoDecodeCache:    p.NoDecodeCache,
		DMI:              p.DMI,
	}
	if p.Transport != nil {
		s.Transport = p.Transport.Name()
	}
	return s
}

// DecodeSpec decodes one JSON spec, rejecting unknown fields so a typo
// in a session request fails loudly instead of silently running the
// defaults, and rejecting anything but whitespace after the spec's
// closing brace, then validates it.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return Spec{}, fmt.Errorf("spec: trailing data after the JSON object")
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

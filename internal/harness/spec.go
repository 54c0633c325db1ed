package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"

	"cosim/internal/sim"
	"cosim/internal/transport"
)

// Spec is the wire-serializable form of Params: the subset of a run's
// configuration that can travel over an API boundary. Params holds live
// process resources — an io.Writer trace sink, a *core.Journal, an
// *obs.Registry, a core.Transport interface value — none of which
// survive a JSON round trip, so cosimd sessions and benchtab's
// load-driver mode speak Spec, cosim and benchtab bind their flags to
// one (RegisterFlags), and each materialises Params on the executing
// side.
//
// Durations are sim.ParseTime strings ("10ms", "1.5us"); the transport
// is named, resolved through transport.Parse on decode. Zero-valued
// fields mean "use the run defaults" — Params.WithDefaults applies them
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

	// DMI grants Driver-Kernel guests direct memory windows over their
	// bound ports (see README "Memory fast path").
	DMI bool `json:"dmi,omitempty"`
	// Coalesce is inert: message coalescing was removed. The field
	// stays so specs written with "coalesce" still decode; its value is
	// ignored and does not reach Params.
	Coalesce bool `json:"coalesce,omitempty"`

	// Quantum is inert: temporal decoupling was removed. The field
	// stays so specs written with "quantum" still decode; Params
	// still requires a well-formed duration, but the value is ignored
	// and does not reach Params.
	Quantum string `json:"quantum,omitempty"`
}

// timeField parses one optional duration field. Empty decodes to zero,
// meaning "use the run default"; so does any explicit zero spelling
// ("0", "0ns", ...), which Params.WithDefaults cannot tell apart from
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

// Params materialises the spec into runnable Params: names are resolved
// (scheme via ParseScheme, transport via transport.Parse), durations are
// parsed (the retired quantum too), and the result must pass the check
// Run applies. Zero fields stay zero so Run applies the usual defaults.
// Trace, Journal and Obs are left nil for the caller to attach.
func (s Spec) Params() (Params, error) {
	if s.Scheme == "" {
		return Params{}, fmt.Errorf("spec: missing scheme")
	}
	scheme, err := ParseScheme(s.Scheme)
	if err != nil {
		return Params{}, fmt.Errorf("spec: %w", err)
	}
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
		DMI:              s.DMI,
	}
	if s.Transport != "" {
		tr, err := transport.Parse(s.Transport)
		if err != nil {
			return Params{}, fmt.Errorf("spec: %w", err)
		}
		p.Transport = tr
	}
	if p.SimTime, err = timeField("sim_time", s.SimTime); err != nil {
		return Params{}, err
	}
	if p.Delay, err = timeField("delay", s.Delay); err != nil {
		return Params{}, err
	}
	if _, err = timeField("quantum", s.Quantum); err != nil {
		return Params{}, err
	}
	if err := p.check(); err != nil {
		return Params{}, fmt.Errorf("spec: %w", err)
	}
	return p, nil
}

// RegisterFlags binds one flag per Spec key to s, with the defaults
// cosim and benchtab have always had. The sweep axes (scheme,
// transport, sim_time) are left to each command, and the retired
// coalesce and quantum get no flag.
func (s *Spec) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Delay, "delay", "20us", "inter-packet delay per source")
	fs.IntVar(&s.PayloadWords, "payload", 4, "payload words per packet")
	fs.Float64Var(&s.ErrorRate, "errors", 0, "corrupted-packet injection rate [0,1]")
	fs.Float64Var(&s.MulticastRate, "multicast", 0, "broadcast packet rate [0,1]")
	fs.IntVar(&s.FifoDepth, "fifo", 8, "router FIFO depth")
	fs.Uint64Var(&s.PacketsPerSource, "packets", 0, "packets each source sends (0 = unlimited)")
	fs.Int64Var(&s.Seed, "seed", 1, "traffic seed")
	fs.IntVar(&s.CPUs, "cpus", 1, "checksum CPUs servicing the router (gdb-kernel and driver-kernel)")
	fs.Uint64Var(&s.InstrPerCycle, "instrpercycle", 0, "gdb-wrapper instructions per clock cycle (0 = 8)")
	fs.BoolVar(&s.DMI, "dmi", false, "grant driver-kernel guests direct memory windows (memory fast path)")
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
		InstrPerCycle:    p.InstrPerCycle,
		CPUs:             p.CPUs,
		Delay:            timeStr(p.Delay),
		PayloadWords:     p.PayloadWords,
		ErrorRate:        p.ErrorRate,
		MulticastRate:    p.MulticastRate,
		FifoDepth:        p.FifoDepth,
		PacketsPerSource: p.PacketsPerSource,
		Seed:             p.Seed,
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
// closing brace, then materialises it: the Params it returns are
// Spec.Params of the spec it returns.
func DecodeSpec(data []byte) (Spec, Params, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, Params{}, fmt.Errorf("spec: %w", err)
	}
	if dec.Decode(&struct{}{}) != io.EOF {
		return Spec{}, Params{}, fmt.Errorf("spec: trailing data after the JSON object")
	}
	p, err := s.Params()
	if err != nil {
		return Spec{}, Params{}, err
	}
	return s, p, nil
}

package harness

import "time"

// Metrics is the machine-readable per-run measurement record emitted by
// `benchtab -json`, a stable schema for reports to build on. Durations are plain nanosecond/picosecond integers to keep
// the report trivially parseable.
type Metrics struct {
	Scheme       string  `json:"scheme"`
	Transport    string  `json:"transport"`
	CPUs         int     `json:"cpus"`
	SimTime      string  `json:"sim_time"`
	Delay        string  `json:"delay"`
	WallNS       int64   `json:"wall_ns"`
	SimulatedPS  uint64  `json:"simulated_ps"`
	Messages     uint64  `json:"messages"`
	Transfers    uint64  `json:"transfers"`
	Polls        uint64  `json:"polls"`
	Stops        uint64  `json:"stops"`
	IntsNotified uint64  `json:"ints_notified"`
	DMI          bool    `json:"dmi,omitempty"`
	DMIHits      uint64  `json:"dmi_hits,omitempty"`
	DMIMisses    uint64  `json:"dmi_misses,omitempty"`
	GuestInstr   uint64  `json:"guest_instructions"`
	GuestCycles  uint64  `json:"guest_cycles"`
	Generated    uint64  `json:"generated"`
	Forwarded    uint64  `json:"forwarded"`
	ForwardedPct float64 `json:"forwarded_pct"`
	MeanLatPS    uint64  `json:"mean_latency_ps"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	// Counters is the flattened obs registry snapshot of the run (see
	// the README's Observability section for the metric names).
	Counters map[string]uint64 `json:"counters,omitempty"`
	// TraceErr carries a VCD writer failure, "" when none.
	TraceErr string `json:"trace_err,omitempty"`
}

// Metrics flattens the run into its measurement record. The transport
// is named through WithDefaults: Run's Params are already defaulted,
// but a Result built elsewhere may carry a nil transport.
func (r *Result) Metrics() Metrics {
	m := Metrics{
		Scheme:       r.Params.Scheme.String(),
		Transport:    r.Params.WithDefaults().Transport.Name(),
		CPUs:         r.Params.CPUs,
		SimTime:      r.Params.SimTime.String(),
		Delay:        r.Params.Delay.String(),
		WallNS:       r.Wall.Nanoseconds(),
		SimulatedPS:  uint64(r.Simulated),
		Messages:     r.CoStats.Messages,
		Transfers:    r.CoStats.Transfers,
		Polls:        r.CoStats.Polls,
		Stops:        r.CoStats.Stops,
		IntsNotified: r.CoStats.IntsNotified,
		DMI:          r.Params.DMI,
		DMIHits:      r.CoStats.DMIHits,
		DMIMisses:    r.CoStats.DMIMisses,
		GuestInstr:   r.GuestInstructions,
		GuestCycles:  r.GuestCycles,
		Generated:    r.Generated,
		Forwarded:    r.Forwarded,
		ForwardedPct: r.ForwardedPct(),
		MeanLatPS:    uint64(r.MeanLat),
		Allocs:       r.Allocs,
		AllocBytes:   r.AllocBytes,
		Counters:     r.Counters,
	}
	if r.TraceErr != nil {
		m.TraceErr = r.TraceErr.Error()
	}
	return m
}

// Wall is a convenience accessor pairing the metric with its
// time.Duration form.
func (m Metrics) Wall() time.Duration { return time.Duration(m.WallNS) }

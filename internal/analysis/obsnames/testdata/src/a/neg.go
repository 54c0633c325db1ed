package a

import (
	"fmt"

	"cosim/internal/obs"
)

type handles struct {
	msgs    *obs.Counter
	pending *obs.Gauge
	name    string
}

// Construction-time dynamic names are the documented pattern: resolve
// once, store the handle.
func newHandles(r *obs.Registry, id int) *handles {
	return &handles{
		msgs:    r.Counter(fmt.Sprintf("driver.cpu%d.messages", id)),
		pending: r.Gauge(fmt.Sprintf("driver.cpu%d.pending_reads", id)),
		name:    fmt.Sprintf("driver.cpu%d.skew_wait_timeouts", id),
	}
}

type holder struct{ h *handles }

func (h *holder) init(r *obs.Registry, id int) {
	h.h = &handles{msgs: r.Counter(fmt.Sprintf("driver.cpu%d.interrupts", id))}
}

// Hot-path updates through pre-resolved handles are the contract.
func (h *handles) hot(r *obs.Registry, n uint64) {
	h.msgs.Inc()
	h.pending.Set(n)
	// Looking up a pre-resolved name string allocates nothing.
	r.Counter(h.name).Inc()
}

// Constant names are fine anywhere, and aggregate (non-per-CPU) names
// are outside the cpuN grammar.
func (h *handles) constants(r *obs.Registry) {
	r.Counter("driver.messages").Inc()
	r.Gauge("driver.pending_reads").Set(1)
	r.Histogram("driver.skew_wait_ns").Observe(2)
	r.Counter("driver.cpu3.messages").Inc()
}

// Unrelated Sprintf calls and non-Registry receivers are out of scope.
type fake struct{}

func (fake) Counter(name string) int { return len(name) }

func (h *handles) unrelated(f fake, id int) int {
	return f.Counter(fmt.Sprintf("driver.cpu%d.whatever", id))
}

// suppressed: the documented escape hatch.
func (h *handles) suppressed(r *obs.Registry, id int) {
	//cosimvet:ignore obsnames fixture exercises the suppression directive
	r.Counter(fmt.Sprintf("driver.cpu%d.messages", id)).Inc()
}

// The documented per-CPU DMI metrics and transport metrics pass.
func newDMIHandles(r *obs.Registry, id int) *handles {
	return &handles{
		msgs:    r.Counter(fmt.Sprintf("driver.cpu%d.dmi_hits", id)),
		pending: r.Gauge(fmt.Sprintf("driver.cpu%d.dmi_misses", id)),
		name:    fmt.Sprintf("driver.cpu%d.dmi_revocations", id),
	}
}

func (h *handles) transportConstants(r *obs.Registry) {
	r.Counter("transport.ring.pairs").Inc()
	r.Counter("transport.tcp.tx_bytes").Inc()
	r.Counter("transport.unix.rx_bytes").Inc()
	r.Counter("transport.pipe.tx_bytes").Inc()
}

func newSprintfTransportOK(r *obs.Registry, backend string) *obs.Counter {
	return r.Counter(fmt.Sprintf("transport.%s.rx_bytes", backend))
}

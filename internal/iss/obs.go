package iss

import "cosim/internal/obs"

// PublishObs accumulates the CPU's execution counters into the
// registry: iss.instructions, iss.cycles and the iss.decode_cache_*
// fast-fetch-path totals. Counters (not gauges) so
// multi-processor configurations sum naturally — call once per CPU
// once nothing runs the guest. Safe on a nil registry.
func (c *CPU) PublishObs(r *obs.Registry) {
	r.Counter("iss.instructions").Add(c.Instructions())
	r.Counter("iss.cycles").Add(c.Cycles())
	r.Counter("iss.decode_cache_hits").Add(c.dcHits)
	r.Counter("iss.decode_cache_misses").Add(c.dcMisses)
	r.Counter("iss.decode_cache_invalidations").Add(c.dcInvalidations)
}

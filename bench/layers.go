package main

import (
	"strings"
	"time"

	"cosim/internal/harness"
)

// layerCounters reports the per-layer metrics the runs' own records
// carry: obs counters and outcome counts summed over the runs, per
// simulated millisecond or as ratios.
func layerCounters(r *report, records []harness.Metrics) {
	n := len(records)
	var simTotal float64
	var wall time.Duration
	var instr, msgs, transfers, stops, generated, forwarded, allocs uint64
	c := map[string]uint64{}
	for _, m := range records {
		simTotal += simMs(m)
		wall += time.Duration(m.WallNS)
		instr += m.GuestInstr
		msgs += m.Messages
		transfers += m.Transfers
		stops += m.Stops
		generated += m.Generated
		forwarded += m.Forwarded
		allocs += m.Allocs
		for k, v := range m.Counters {
			c[k] += v
		}
	}
	var batched uint64
	for k, v := range c {
		if strings.HasPrefix(k, "transport.") && strings.HasSuffix(k, ".batched_msgs") {
			batched += v
		}
	}
	ok := simTotal > 0
	perMs := func(name string, v float64) { r.put(name, unitPerMs, v/simTotal, ok, n) }
	msPerMs := func(name string, ns uint64) { r.put(name, unitMsPerMs, float64(ns)/1e6/simTotal, ok, n) }
	frac := func(name, unit string, num, den uint64) {
		r.put(name, unit, ratio(float64(num), float64(den)), true, n)
	}

	perMs("sim.cycles_per_sim_ms", float64(c["sim.cycles"]))
	perMs("sim.activations_per_sim_ms", float64(c["sim.activations"]))
	msPerMs("sim.hook_ms_per_sim_ms", c["sim.cycle_hook_ns.sum"])
	perMs("sim.cluster_merges_per_sim_ms", float64(c["sim.cluster_merges"]))

	perMs("iss.instr_per_sim_ms", float64(instr))
	r.put("iss.mips", unitMIPS, ratio(float64(instr)/1e6, wall.Seconds()), n > 0, n)
	hits := c["iss.decode_cache_hits"]
	frac("iss.decode_hit_ratio", unitRatio, hits, hits+c["iss.decode_cache_misses"])

	perMs("core.messages_per_sim_ms", float64(msgs))
	perMs("core.transfers_per_sim_ms", float64(transfers))
	perMs("core.stops_per_sim_ms", float64(stops))
	msPerMs("core.sync_wait_ms_per_sim_ms", c["driver.skew_wait_ns.sum"]+c["cosim.skew_wait_ns.sum"])
	dmi := c["driver.dmi_hits"]
	frac("core.dmi_hit_ratio", unitRatio, dmi, dmi+c["driver.dmi_misses"])
	frac("core.batched_msg_frac", unitRatio, batched, msgs)
	breaks := c["driver.quantum_breaks"]
	frac("core.quantum_break_ratio", unitRatio, breaks, breaks+c["driver.quantum_syncs"])

	trips := c["rsp.round_trips"]
	perMs("gdb.round_trips_per_sim_ms", float64(trips))
	frac("gdb.bytes_per_round_trip", unitBytes, c["rsp.bytes_sent"]+c["rsp.bytes_recv"], trips)
	r.put("gdb.retransmits", unitCount, float64(c["rsp.retransmits"]), true, n)

	frac("router.forwarded_pct", unitPct, 100*forwarded, generated)
	perMs("runtime.allocs_per_sim_ms", float64(allocs))
}

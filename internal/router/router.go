package router

import (
	"cosim/internal/sim"
)

// NumPorts is the router radix (4x4, as in the paper).
const NumPorts = 4

// BroadcastDst is the multicast destination address: the router copies
// the packet to every output port, as in the SystemC "Multicast Helix
// Packet Switch" example the case study extends.
const BroadcastDst = 0xff

// Config parameterizes the router model.
type Config struct {
	// FifoDepth is the capacity of each input and output queue.
	FifoDepth int
	// Table maps destination address -> output port. Destinations not
	// present route to dst % NumPorts.
	Table map[uint8]int
}

// Stats are the router's forwarding counters.
type Stats struct {
	Dequeued  uint64 // packets taken from input queues
	Forwarded uint64 // packets passed to at least one output queue
	Corrupted uint64 // packets dropped on checksum mismatch
	OutDrops  uint64 // copies lost to a full output queue
	Copies    uint64 // output-queue entries created (multicast counts each copy)
}

// Engine is one checksum service path: the iss ports of one CPU (plus
// its Driver-Kernel doorbell, nil for the GDB schemes). A router with
// several engines — a multi-processor SoC — services packets on all of
// them concurrently.
type Engine struct {
	Pkt      *sim.IssOut
	Csum     *sim.IssIn
	Doorbell func()
}

// Router is the SystemC hardware model of the case study. The checksum
// of each packet is computed in software on an ISS: a forwarding
// process writes the packet blob to the engine's iss_out port, rings
// the doorbell (Driver-Kernel only), and collects the result from its
// iss_in port.
//
// Forwarding is method-style (SC_METHOD) rather than thread-style:
// engine j is statically sensitive only to its input-port partition
// (ports i with i % engines == j) and its own csum port, and it stages
// verified packets into a private queue. A single merger process drains
// the staging queues in fixed engine order and performs the table
// routing into the shared output FIFOs, so the shared outputs and
// counters have one writer.
type Router struct {
	sim.Module
	cfg Config

	In  [NumPorts]*sim.Fifo[*Packet]
	Out [NumPorts]*sim.Fifo[*Packet]

	engines []Engine
	fwd     []*fwdEngine

	merged Stats // merger-owned counters (Forwarded, Copies, OutDrops)
}

// fwdEngine is the per-engine forwarding state machine: the input
// partition it services, the packet awaiting its checksum, and the
// engine-owned counters.
type fwdEngine struct {
	r       *Router
	eng     Engine
	ins     []int // input port indices this engine services
	rr      int   // round-robin position within ins
	staging *sim.Fifo[*Packet]

	pending  *Packet // offloaded packet awaiting its checksum
	csumSeen uint64  // csum deliveries already consumed

	dequeued   uint64
	corrupted  uint64
	stageDrops uint64 // verified packets lost to a full staging queue
}

// New builds the router with one forwarding process per engine plus the
// merger.
func New(k *sim.Kernel, name string, cfg Config, engines []Engine) *Router {
	if cfg.FifoDepth <= 0 {
		cfg.FifoDepth = 8
	}
	if len(engines) == 0 {
		panic("router: at least one checksum engine is required")
	}
	r := &Router{
		Module:  k.NewModule(name),
		cfg:     cfg,
		engines: engines,
	}
	for i := range r.In {
		r.In[i] = sim.NewFifo[*Packet](k, r.Sub("in")+itoa(i), cfg.FifoDepth)
		r.Out[i] = sim.NewFifo[*Packet](k, r.Sub("out")+itoa(i), cfg.FifoDepth)
	}
	stagingEvents := make([]*sim.Event, 0, len(engines))
	for j := range engines {
		f := &fwdEngine{
			r:       r,
			eng:     engines[j],
			staging: sim.NewFifo[*Packet](k, r.Sub("stage")+itoa(j), cfg.FifoDepth),
		}
		sens := []*sim.Event{f.eng.Csum.Event()}
		for i := 0; i < NumPorts; i++ {
			if i%len(engines) == j {
				f.ins = append(f.ins, i)
				sens = append(sens, r.In[i].DataWritten())
			}
		}
		k.Method(r.Sub("forward")+itoa(j), f.step, sens...)
		stagingEvents = append(stagingEvents, f.staging.DataWritten())
		r.fwd = append(r.fwd, f)
	}
	k.MethodNoInit(r.Sub("merge"), r.merge, stagingEvents...)
	return r
}

// Stats returns the forwarding counters, summed over the merger and the
// per-engine state.
func (r *Router) Stats() Stats {
	st := r.merged
	for _, f := range r.fwd {
		st.Dequeued += f.dequeued
		st.Corrupted += f.corrupted
		st.OutDrops += f.stageDrops
	}
	return st
}

// Route returns the output port for a destination address (unicast).
func (r *Router) Route(dst uint8) int {
	if p, ok := r.cfg.Table[dst]; ok && p >= 0 && p < NumPorts {
		return p
	}
	return int(dst) % NumPorts
}

// RouteOK reports whether a packet for dst may legitimately appear on
// output port out (any port is legitimate for the broadcast address).
func (r *Router) RouteOK(dst uint8, out int) bool {
	return dst == BroadcastDst || r.Route(dst) == out
}

// nextPacket scans the engine's input partition round-robin.
func (f *fwdEngine) nextPacket() *Packet {
	for i := 0; i < len(f.ins); i++ {
		slot := (f.rr + i) % len(f.ins)
		if pkt, ok := f.r.In[f.ins[slot]].TryRead(); ok {
			f.rr = (slot + 1) % len(f.ins)
			return pkt
		}
	}
	return nil
}

// step is one forwarding activation: collect a finished checksum if one
// is in, then dequeue and offload the next packet. At most one packet
// is outstanding per engine, exactly like the thread-style predecessor,
// but the blocking Wait is replaced by the delivery counter so the
// method runs to completion every activation.
func (f *fwdEngine) step() {
	for {
		if f.pending != nil {
			if f.eng.Csum.Deliveries() <= f.csumSeen {
				return // result not in yet; woken by an input we can't service
			}
			f.csumSeen = f.eng.Csum.Deliveries()
			pkt := f.pending
			f.pending = nil
			if uint16(f.eng.Csum.Uint32()) != pkt.Checksum {
				f.corrupted++
				continue
			}
			if !f.staging.TryWrite(pkt) {
				f.stageDrops++
			}
			continue
		}
		pkt := f.nextPacket()
		if pkt == nil {
			return
		}
		f.dequeued++
		f.pending = pkt

		// Offload checksum verification to the CPU.
		f.eng.Pkt.Write(pkt.Blob())
		if f.eng.Doorbell != nil {
			f.eng.Doorbell()
		}
		return
	}
}

// merge drains the staging queues in fixed engine order and routes each
// verified packet to the output FIFOs.
func (r *Router) merge() {
	for _, f := range r.fwd {
		for {
			pkt, ok := f.staging.TryRead()
			if !ok {
				break
			}
			r.deliver(pkt)
		}
	}
}

// deliver performs the table routing of one verified packet.
func (r *Router) deliver(pkt *Packet) {
	if pkt.Dst == BroadcastDst {
		delivered := false
		for i := range r.Out {
			if r.Out[i].TryWrite(pkt) {
				r.merged.Copies++
				delivered = true
			} else {
				r.merged.OutDrops++
			}
		}
		if delivered {
			r.merged.Forwarded++
		}
		return
	}
	if r.Out[r.Route(pkt.Dst)].TryWrite(pkt) {
		r.merged.Forwarded++
		r.merged.Copies++
	} else {
		r.merged.OutDrops++
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

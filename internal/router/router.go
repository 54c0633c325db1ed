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
// (ports i with i % engines == j) and its own csum port, and it routes
// each verified packet straight into the output FIFOs by the static
// table. The simulation kernel runs one process at a time, so the
// engines share the output FIFOs and one counter set.
type Router struct {
	sim.Module
	cfg Config

	In  [NumPorts]*sim.Fifo[*Packet]
	Out [NumPorts]*sim.Fifo[*Packet]

	engines []*fwdEngine
	stats   Stats
}

// fwdEngine is the per-engine forwarding state machine: the input
// partition it services and the packet awaiting its checksum.
type fwdEngine struct {
	r   *Router
	eng Engine
	ins []int // input port indices this engine services
	rr  int   // round-robin position within ins

	pending  *Packet // offloaded packet awaiting its checksum
	csumSeen uint64  // csum deliveries already consumed
	blob     []byte  // the pending packet's blob, reused for every packet
}

// New builds the router with one forwarding process per engine.
func New(k *sim.Kernel, name string, cfg Config, engines []Engine) *Router {
	if cfg.FifoDepth <= 0 {
		cfg.FifoDepth = 8
	}
	if len(engines) == 0 {
		panic("router: at least one checksum engine is required")
	}
	r := &Router{
		Module: k.NewModule(name),
		cfg:    cfg,
	}
	for i := range r.In {
		r.In[i] = sim.NewFifo[*Packet](k, r.Sub("in")+itoa(i), cfg.FifoDepth)
		r.Out[i] = sim.NewFifo[*Packet](k, r.Sub("out")+itoa(i), cfg.FifoDepth)
	}
	for j := range engines {
		f := &fwdEngine{r: r, eng: engines[j], blob: make([]byte, 0, MaxBlobBytes)}
		r.engines = append(r.engines, f)
		sens := []*sim.Event{f.eng.Csum.Event()}
		for i := 0; i < NumPorts; i++ {
			if i%len(engines) == j {
				f.ins = append(f.ins, i)
				sens = append(sens, r.In[i].DataWritten())
			}
		}
		k.Method(r.Sub("forward")+itoa(j), f.step, sens...)
	}
	return r
}

// Stats returns the forwarding counters.
func (r *Router) Stats() Stats { return r.stats }

// Capacity is the most packets the router can hold: full input and
// output queues, and one packet awaiting its checksum per engine.
func (r *Router) Capacity() int { return 2*NumPorts*r.cfg.FifoDepth + len(r.engines) }

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
				f.r.stats.Corrupted++
				pkt.Release()
			} else {
				f.r.deliver(pkt)
			}
			continue
		}
		pkt := f.nextPacket()
		if pkt == nil {
			return
		}
		f.r.stats.Dequeued++
		f.pending = pkt

		// Offload checksum verification to the CPU.
		f.blob = pkt.AppendBlob(f.blob[:0])
		f.eng.Pkt.Write(f.blob)
		if f.eng.Doorbell != nil {
			f.eng.Doorbell()
		}
		return
	}
}

// deliver performs the table routing of one verified packet. Each
// output queue that takes the packet owns a copy of it; a packet no
// queue takes is released.
func (r *Router) deliver(pkt *Packet) {
	if pkt.Dst == BroadcastDst {
		copies := 0
		for i := range r.Out {
			if r.Out[i].TryWrite(pkt) {
				copies++
			} else {
				r.stats.OutDrops++
			}
		}
		if copies > 0 {
			r.stats.Forwarded++
			r.stats.Copies += uint64(copies)
		}
		pkt.share(copies)
		return
	}
	if r.Out[r.Route(pkt.Dst)].TryWrite(pkt) {
		r.stats.Forwarded++
		r.stats.Copies++
	} else {
		r.stats.OutDrops++
		pkt.Release()
	}
}

// Held returns the packets the router holds: those in its input
// queues, those awaiting a checksum and those in its output queues, a
// broadcast counted once however many queues hold a copy. When traffic
// comes from a Pool, Held equals the pool's Live at the end of a run.
func (r *Router) Held() int {
	n := 0
	for _, f := range r.engines {
		if f.pending != nil {
			n++
		}
	}
	for i := range r.In {
		n += r.In[i].Len()
	}
	for i, q := range r.Out {
		for j := 0; j < q.Len(); j++ {
			if pkt := q.At(j); pkt.Dst != BroadcastDst || !r.heldBelow(i, pkt) {
				n++
			}
		}
	}
	return n
}

// heldBelow reports whether an output queue numbered below port holds
// pkt: a broadcast is counted at the first queue holding a copy.
func (r *Router) heldBelow(port int, pkt *Packet) bool {
	for _, q := range r.Out[:port] {
		for j := 0; j < q.Len(); j++ {
			if q.At(j) == pkt {
				return true
			}
		}
	}
	return false
}

func itoa(i int) string { return string(rune('0' + i)) }

package router

import (
	"math/rand"

	"cosim/internal/sim"
)

// ProducerConfig parameterizes a traffic source.
type ProducerConfig struct {
	// Delay is the inter-packet delay (the x-axis of Figure 7).
	Delay sim.Time
	// PayloadWords is the data field length of generated packets.
	PayloadWords int
	// ErrorRate is the probability of injecting a corrupted packet
	// (wrong checksum), exercising the router's drop path.
	ErrorRate float64
	// MulticastRate is the probability of generating a broadcast packet
	// (Dst = BroadcastDst), copied to every output port.
	MulticastRate float64
	// Count limits the number of packets generated (0 = unlimited).
	Count uint64
	// Seed makes traffic reproducible.
	Seed int64
}

// Producer is the SystemC packet generator attached to one router
// input: "it generates packets with a random destination address".
type Producer struct {
	sim.Module
	cfg ProducerConfig

	Generated uint64 // packets produced
	Offered   uint64 // packets accepted by the input queue
	InDrops   uint64 // packets lost to a full input queue
	BadSent   uint64 // corrupted packets injected
	done      bool
}

// NewProducer attaches a producer to the given input queue. src is the
// source address stamped on packets; ids are drawn from a shared
// sequence so packet identifiers are unique router-wide. The producer
// takes its packets from pool, which a run's producers share, so its
// Live counts the run's packets.
func NewProducer(k *sim.Kernel, name string, src uint8, in *sim.Fifo[*Packet], ids *IDSource, pool *Pool, cfg ProducerConfig) *Producer {
	if cfg.Delay == 0 {
		cfg.Delay = sim.US
	}
	if cfg.PayloadWords <= 0 {
		cfg.PayloadWords = 4
	}
	if cfg.PayloadWords > MaxPayloadWords {
		cfg.PayloadWords = MaxPayloadWords
	}
	p := &Producer{Module: k.NewModule(name), cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(src)<<32))
	tick := k.NewEvent(p.Sub("tick"))
	started := false
	// A method, not a thread (see Kernel.Thread): the initialisation run
	// only arms the first tick, and each tick generates one packet and
	// re-arms. Coincident producers re-arm in the order they ran and the
	// timed queue breaks ties by insertion order, so they keep firing,
	// and drawing ids, in registration order.
	k.Method(p.Sub("gen"), func() {
		if !started {
			started = true
			tick.NotifyAfter(cfg.Delay)
			return
		}
		dst := uint8(rng.Intn(NumPorts))
		if cfg.MulticastRate > 0 && rng.Float64() < cfg.MulticastRate {
			dst = BroadcastDst
		}
		pkt := pool.Get(cfg.PayloadWords)
		pkt.Src, pkt.Dst, pkt.ID, pkt.Born = src, dst, ids.Next(), k.Now()
		for i := range pkt.Payload {
			pkt.Payload[i] = rng.Uint32()
		}
		pkt.Seal()
		if cfg.ErrorRate > 0 && rng.Float64() < cfg.ErrorRate {
			pkt.Checksum ^= 0x0001 // inject a detectable corruption
			p.BadSent++
		}
		p.Generated++
		if in.TryWrite(pkt) {
			p.Offered++
		} else {
			p.InDrops++
			pkt.Release()
		}
		if cfg.Count != 0 && p.Generated >= cfg.Count {
			p.done = true
			return
		}
		tick.NotifyAfter(cfg.Delay)
	}, tick)
	return p
}

// Done reports whether a bounded producer has finished.
func (p *Producer) Done() bool { return p.done }

// IDSource issues unique packet identifiers.
type IDSource struct{ next uint32 }

// Next returns the next identifier.
func (s *IDSource) Next() uint32 { s.next++; return s.next }

// Consumer drains one router output, verifying integrity end-to-end:
// "the consumer ... analyzes the integrity of the received packet".
type Consumer struct {
	sim.Module

	Received   uint64
	BadContent uint64 // checksum mismatch at the consumer (must be 0)
	Misrouted  uint64 // packet arrived on the wrong output (must be 0)
	TotalLat   sim.Time
}

// NewConsumer attaches a consumer to output port index out. routeOK
// reports whether a destination may appear on this output (the router's
// RouteOK, which also accepts broadcast copies). The consumer releases
// each packet it takes.
func NewConsumer(k *sim.Kernel, name string, out int, q *sim.Fifo[*Packet], routeOK func(uint8, int) bool) *Consumer {
	c := &Consumer{Module: k.NewModule(name)}
	k.Method(c.Sub("sink"), func() {
		for pkt, ok := q.TryRead(); ok; pkt, ok = q.TryRead() {
			c.Received++
			if !pkt.Valid() {
				c.BadContent++
			}
			if !routeOK(pkt.Dst, out) {
				c.Misrouted++
			}
			c.TotalLat = c.TotalLat.Add(k.Now().Sub(pkt.Born))
			pkt.Release()
		}
	}, q.DataWritten())
	return c
}

// MeanLatency returns the average ingress-to-egress packet latency.
func (c *Consumer) MeanLatency() sim.Time {
	if c.Received == 0 {
		return 0
	}
	return c.TotalLat / sim.Time(c.Received)
}

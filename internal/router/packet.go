// Package router implements the paper's case study (§5): a 4-input,
// 4-output packet router derived from the SystemC "Multicast Helix
// Packet Switch" example. Incoming packets are buffered in FIFO queues;
// a static routing table selects the output port; before forwarding,
// the packet checksum is verified by a C-equivalent application running
// on the ISS, reached through any of the co-simulation schemes in
// internal/core.
package router

import (
	"encoding/binary"
	"fmt"

	"cosim/internal/sim"
)

// MaxPayloadWords bounds the packet data field; the guest applications
// reserve a receive buffer of the matching size (see guest sources).
const MaxPayloadWords = 60

// HeaderBytes is the size of the checksummed packet header.
const HeaderBytes = 8

// MaxBlobBytes is the largest serialized packet blob (length word +
// header + payload).
const MaxBlobBytes = 4 + HeaderBytes + 4*MaxPayloadWords

// Packet is the router's unit of traffic (§5: source address,
// destination address, packet identifier, data field, checksum).
type Packet struct {
	Src      uint8
	Dst      uint8
	ID       uint32
	Payload  []uint32
	Checksum uint16

	Born sim.Time // creation time, for latency accounting

	// pool is the free list the packet returns to once its last owner
	// releases it (nil for a packet built as a literal), and refs its
	// owners: one, or a broadcast's copy count.
	pool *Pool
	refs int
}

// Region returns the checksummed byte region: header (src, dst, pad,
// id) followed by the payload words, all little-endian.
func (p *Packet) Region() []byte {
	return p.appendRegion(make([]byte, 0, HeaderBytes+4*len(p.Payload)))
}

func (p *Packet) appendRegion(dst []byte) []byte {
	dst = append(dst, p.Src, p.Dst, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, p.ID)
	for _, w := range p.Payload {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

// Blob serializes the packet for the guest checksum application: a
// 32-bit region length followed by the region itself.
func (p *Packet) Blob() []byte { return p.AppendBlob(nil) }

// AppendBlob appends the packet's blob to dst, so a caller that reuses
// dst serializes packets without allocating.
func (p *Packet) AppendBlob(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(HeaderBytes+4*len(p.Payload)))
	return p.appendRegion(dst)
}

// Seal computes and stores the correct checksum.
func (p *Packet) Seal() { p.Checksum = p.sum() }

// Valid reports whether the stored checksum matches the content.
func (p *Packet) Valid() bool { return p.Checksum == p.sum() }

// sum is Checksum16 of the packet's Region, summed from the header
// fields and payload words in place: every field is a whole number of
// little-endian halfwords.
func (p *Packet) sum() uint16 {
	s := uint32(p.Src) | uint32(p.Dst)<<8 + p.ID&0xffff + p.ID>>16
	for _, w := range p.Payload {
		s += w&0xffff + w>>16
	}
	return fold(s)
}

// String implements fmt.Stringer.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt{id=%d %d->%d len=%d csum=%#04x}", p.ID, p.Src, p.Dst, len(p.Payload), p.Checksum)
}

// Checksum16 computes the 16-bit ones'-complement (Internet-style)
// checksum over b, summing little-endian halfwords. It matches the
// csum16 routine in the guest assembly exactly.
func Checksum16(b []byte) uint16 {
	var sum uint32
	i := 0
	for ; i+1 < len(b); i += 2 {
		sum += uint32(b[i]) | uint32(b[i+1])<<8
	}
	if i < len(b) {
		sum += uint32(b[i])
	}
	return fold(sum)
}

// fold ends a ones'-complement sum: carries wrap into the low
// halfword, which is then complemented.
func fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// Pool is one run's free list of packets. Producers take packets from
// it, and whoever ends a packet's trip releases it: the consumer, the
// router on a checksum drop or a full output queue, and the producer
// on a full input queue. A broadcast has one owner per output queue
// that took a copy. Like the rest of the model it belongs to the run's
// kernel goroutine, so concurrent runs never share one.
type Pool struct {
	free []*Packet
	live int
}

// NewPool returns a pool holding n packets of words payload words, so
// a run whose live packets stay within n allocates none.
func NewPool(n, words int) *Pool {
	p := &Pool{free: make([]*Packet, n)}
	pkts, payload := make([]Packet, n), make([]uint32, n*words)
	for i := range pkts {
		pkts[i] = Packet{pool: p, Payload: payload[i*words : (i+1)*words : (i+1)*words]}
		p.free[i] = &pkts[i]
	}
	return p
}

// Get returns a packet with a payload of words words, owned by the
// caller; its other fields hold whatever its last trip left.
func (p *Pool) Get(words int) *Packet {
	var pkt *Packet
	if n := len(p.free); n > 0 {
		pkt, p.free = p.free[n-1], p.free[:n-1]
	} else {
		pkt = &Packet{pool: p}
	}
	if cap(pkt.Payload) < words {
		pkt.Payload = make([]uint32, words)
	}
	pkt.Payload = pkt.Payload[:words]
	pkt.refs = 1
	p.live++
	return pkt
}

// Live returns the packets taken and not yet released: at the end of
// a run, the packets the router model still holds.
func (p *Pool) Live() int { return p.live }

// Release ends one owner's hold on the packet. The last release
// returns it to its pool; a release beyond the last still counts
// against Live, so a packet released once too often shows in the
// balance.
func (pkt *Packet) Release() {
	if pkt.pool == nil {
		return
	}
	pkt.refs--
	switch {
	case pkt.refs == 0:
		pkt.pool.free = append(pkt.pool.free, pkt)
		pkt.pool.live--
	case pkt.refs < 0:
		pkt.pool.live--
	}
}

// share hands the packet from its one owner to n owners, the copies
// of a broadcast; with none it is released.
func (pkt *Packet) share(n int) {
	if n == 0 {
		pkt.Release()
		return
	}
	pkt.refs = n
}

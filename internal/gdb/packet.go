// Package gdb implements the part of the GDB Remote Serial Protocol
// (RSP) that the co-simulation schemes use: the "$data#checksum" packet
// framing, a target-side stub that serves an iss.CPU, and the host-side
// client the schemes drive it with. The stub answers the packets the
// schemes send (QStartNoAckMode, Z0 and Z2, m and M, a bare c or s, k,
// and the qRun extension) and gives every other packet RSP's empty
// reply.
//
// The paper's GDB-Wrapper and GDB-Kernel co-simulation schemes use this
// interface between the SystemC side and the ISS, exactly as [14]
// proposed gdb's remote debugging primitives as the standard ISS
// integration interface. The protocol is implemented at the wire level
// (escaping, checksums, acknowledgements, retransmission) so its costs
// are real. Like gdb over a reliable transport, the client negotiates
// QStartNoAckMode at attach time; acks and retransmission then remain
// only for the handshake and for peers that refuse it.
package gdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// MaxPacketSize is the advertised maximum payload size.
const MaxPacketSize = 4096

// ErrChecksum reports a packet whose checksum does not match after
// no-ack mode was negotiated: with no NAK to request a retransmission,
// the corruption is fatal to the connection.
var ErrChecksum = errors.New("gdb: packet checksum mismatch")

// checksum computes the RSP modulo-256 sum.
func checksum(b []byte) byte {
	var s byte
	for _, c := range b {
		s += c
	}
	return s
}

// unescape reverses RSP escaping ($, #, } and * travel as 0x7d followed
// by the character xored with 0x20) in place and returns the shortened
// slice.
func unescape(b []byte) []byte {
	n := 0
	for i := 0; i < len(b); i++ {
		if b[i] == 0x7d && i+1 < len(b) {
			i++
			b[n] = b[i] ^ 0x20
		} else {
			b[n] = b[i]
		}
		n++
	}
	return b[:n]
}

// Stats counts protocol traffic, used by the benchmark harness to
// attribute co-simulation overhead.
type Stats struct {
	PacketsSent uint64
	PacketsRecv uint64
	BytesSent   uint64
	BytesRecv   uint64
	Retransmits uint64
	// AcksSent counts '+'/'-' acknowledgement bytes written. Once no-ack
	// mode is negotiated it stops growing, so it exposes a peer that
	// silently kept ack mode.
	AcksSent uint64
	// RoundTrips counts synchronous command/reply transactions (the
	// blocking IPC exchanges the paper's Table 1 attributes lock-step
	// overhead to). Asynchronous stop replies are not round trips.
	RoundTrips uint64
}

// transport frames packets over an io.ReadWriter with acknowledgement
// handling. It is used by both the stub and the client, each of which
// reads and writes it on one goroutine.
type transport struct {
	rw io.ReadWriter
	br *bufio.Reader

	// noAck is set once QStartNoAckMode is negotiated: by the client
	// while it attaches, by the stub when it answers the request.
	noAck bool

	// wrScratch is the frame build buffer. Between writes it holds the
	// stub's held replies (sendReplyNoAckWait).
	wrScratch []byte
	rdBody    []byte // packet body scratch
	stats     Stats
}

func newTransport(rw io.ReadWriter) *transport {
	return &transport{rw: rw, br: bufio.NewReaderSize(rw, MaxPacketSize)}
}

// appendFrame appends "$<escaped payload>#<checksum>" to dst. The RSP
// checksum covers the escaped payload bytes.
func appendFrame(dst, payload []byte) []byte {
	dst = append(dst, '$')
	var sum byte
	for _, c := range payload {
		switch c {
		case '$', '#', '}', '*':
			dst = append(dst, 0x7d, c^0x20)
			sum += 0x7d + (c ^ 0x20)
		default:
			dst = append(dst, c)
			sum += c
		}
	}
	return append(dst, '#', hexDigits[sum>>4], hexDigits[sum&0xf])
}

// writeFrame frames payload into the scratch buffer and writes it.
func (t *transport) writeFrame(payload []byte) error {
	frame := appendFrame(t.wrScratch[:0], payload)
	t.wrScratch = frame[:0]
	if _, err := t.rw.Write(frame); err != nil {
		return err
	}
	t.stats.PacketsSent++
	t.stats.BytesSent += uint64(len(frame))
	return nil
}

// packetBuffered reports whether a whole packet, "$...#xx", starts the
// bytes already buffered from the peer, so reading it cannot block. A
// partial packet or an ack first does not count.
func (t *transport) packetBuffered() bool {
	buf, _ := t.br.Peek(t.br.Buffered())
	if len(buf) < 4 || buf[0] != '$' {
		return false
	}
	i := bytes.IndexByte(buf, '#')
	return i > 0 && i+2 < len(buf)
}

// sendPacket writes one framed packet and, in ack mode, waits for the
// peer's ack. On '-' (NAK) it retransmits, up to a small retry bound.
func (t *transport) sendPacket(payload []byte) error {
	err := t.writeFrame(payload)
	for attempt := 0; err == nil && !t.noAck; attempt++ {
		ack, rerr := t.br.ReadByte()
		if rerr != nil {
			return rerr
		}
		switch ack {
		case '+':
			return nil
		case '-':
			if attempt == 4 {
				return errors.New("gdb: too many retransmissions")
			}
			t.stats.Retransmits++
			err = t.writeFrame(payload)
		default:
			// Not an ack (e.g. a reply from a peer that does not ack);
			// push back and treat the packet as delivered.
			_ = t.br.UnreadByte()
			return nil
		}
	}
	return err
}

// continueFrame is the framed bare resume, "c".
const continueFrame = "$c#63"

// sendWithContinue frames payload and the resume "c" into one write,
// so the peer reads both from one buffer fill. It applies only in
// no-ack mode, where neither packet waits for an ack, and only when
// both frames fit the MaxPacketSize read buffer of the stub: on a
// synchronous link a write the reader takes in two parts would block
// the writer on the resume while the stub blocks writing the first
// packet's reply. It reports false, with nothing written, otherwise.
func (t *transport) sendWithContinue(payload []byte) (bool, error) {
	if !t.noAck {
		return false, nil
	}
	frames := append(appendFrame(t.wrScratch[:0], payload), continueFrame...)
	t.wrScratch = frames[:0]
	if len(frames) > MaxPacketSize {
		return false, nil
	}
	if _, err := t.rw.Write(frames); err != nil {
		return true, err
	}
	t.stats.PacketsSent += 2
	t.stats.BytesSent += uint64(len(frames))
	return true, nil
}

// sendReplyNoAckWait writes a packet without waiting for the ack byte;
// in ack mode the ack is consumed lazily by the next read. Used by the
// stub for replies so it cannot deadlock against a peer that polls.
// With hold set it frames the packet but holds it, and the next call
// writes it ahead of its own, in one write.
func (t *transport) sendReplyNoAckWait(payload []byte, hold bool) error {
	frames := appendFrame(t.wrScratch, payload)
	t.stats.PacketsSent++
	t.stats.BytesSent += uint64(len(frames) - len(t.wrScratch))
	if hold {
		t.wrScratch = frames
		return nil
	}
	t.wrScratch = frames[:0]
	_, err := t.rw.Write(frames)
	return err
}

// writeAck writes one ack or NAK byte.
func (t *transport) writeAck(c byte) error {
	t.stats.AcksSent++
	_, err := t.rw.Write([]byte{c})
	return err
}

// readPacket reads one packet payload, acknowledging it in ack mode.
// Stray acks and other bytes outside a packet are skipped. The payload
// is decoded in place in the transport's scratch buffer and is valid
// only until the next read: a caller that keeps any of it copies it.
func (t *transport) readPacket() ([]byte, error) {
	for {
		c, err := t.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if c != '$' {
			continue // ack for a no-ack-wait send, or line noise
		}

		body, err := t.readBody()
		if err != nil {
			return nil, err
		}
		hi, err := t.br.ReadByte()
		if err != nil {
			return nil, err
		}
		lo, err := t.br.ReadByte()
		if err != nil {
			return nil, err
		}
		want, err := parseHexByte(hi, lo)
		if err != nil {
			return nil, err
		}
		if checksum(body) != want {
			if t.noAck {
				return nil, ErrChecksum
			}
			if err := t.writeAck('-'); err != nil {
				return nil, err
			}
			continue
		}
		if !t.noAck {
			if err := t.writeAck('+'); err != nil {
				return nil, err
			}
		}
		t.stats.PacketsRecv++
		t.stats.BytesRecv += uint64(len(body) + 4)
		expanded, err := expandRLE(body)
		if err != nil {
			return nil, err
		}
		return unescape(expanded), nil
	}
}

// readBody reads a packet body up to its '#' into the scratch buffer,
// scanning whatever the reader has buffered at a time. A body longer
// than 2*MaxPacketSize is an error as soon as the limit is passed.
func (t *transport) readBody() ([]byte, error) {
	body := t.rdBody[:0]
	for {
		buf, err := t.br.Peek(max(t.br.Buffered(), 1))
		if err != nil {
			return nil, err
		}
		i := bytes.IndexByte(buf, '#')
		n := i
		if i < 0 {
			n = len(buf)
		}
		body = append(body, buf[:n]...)
		t.rdBody = body[:0] // keep the grown array for the next packet
		if len(body) > MaxPacketSize*2 {
			return nil, errors.New("gdb: oversized packet")
		}
		if i >= 0 {
			_, _ = t.br.Discard(i + 1)
			return body, nil
		}
		_, _ = t.br.Discard(n)
	}
}

// expandRLE decodes RSP run-length encoding: "c*N" repeats c a further
// N-29 times (N is a printable byte > 28). Escaped '*' bytes are
// protected by the 0x7d escape, so every raw '*' is an RLE marker.
// This implementation never produces RLE but accepts it, as any RSP
// peer must.
func expandRLE(b []byte) ([]byte, error) {
	if bytes.IndexByte(b, '*') < 0 {
		return b, nil
	}
	out := make([]byte, 0, len(b))
	for i := 0; i < len(b); i++ {
		c := b[i]
		if c == 0x7d && i+1 < len(b) {
			out = append(out, c, b[i+1])
			i++
			continue
		}
		if c != '*' {
			out = append(out, c)
			continue
		}
		if len(out) == 0 || i+1 >= len(b) {
			return nil, errors.New("gdb: malformed run-length encoding")
		}
		n := int(b[i+1]) - 29
		i++
		if n < 0 {
			return nil, errors.New("gdb: bad run-length count")
		}
		rep := out[len(out)-1]
		for j := 0; j < n; j++ {
			out = append(out, rep)
		}
		if len(out) > MaxPacketSize*4 {
			return nil, errors.New("gdb: run-length expansion too large")
		}
	}
	return out, nil
}

const hexDigits = "0123456789abcdef"

func parseHexByte(hi, lo byte) (byte, error) {
	h, ok1 := hexVal(hi)
	l, ok2 := hexVal(lo)
	if !ok1 || !ok2 {
		return 0, fmt.Errorf("gdb: bad hex byte %c%c", hi, lo)
	}
	return h<<4 | l, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// parseHex parses a non-empty run of at most 16 hex digits.
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		d, ok := hexVal(c)
		if !ok {
			return 0, false
		}
		v = v<<4 | uint64(d)
	}
	return v, true
}

// parseHexPair parses "<hex>,<hex>".
func parseHexPair(b []byte) (x, y uint64, ok bool) {
	for i, c := range b {
		if c == ',' {
			x, ok1 := parseHex(b[:i])
			y, ok2 := parseHex(b[i+1:])
			return x, y, ok1 && ok2
		}
	}
	return 0, 0, false
}

// appendHex appends b as lowercase hex.
func appendHex(dst, b []byte) []byte {
	for _, c := range b {
		dst = append(dst, hexDigits[c>>4], hexDigits[c&0xf])
	}
	return dst
}

// appendUnhex appends the bytes the hex string b encodes. It may
// decode in place: appendUnhex(b[:0], b) reuses b's array.
func appendUnhex(dst, b []byte) ([]byte, error) {
	if len(b)%2 != 0 {
		return nil, errors.New("gdb: odd-length hex")
	}
	for i := 0; i < len(b); i += 2 {
		v, err := parseHexByte(b[i], b[i+1])
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// appendHexU32LE appends a 32-bit value as 8 hex digits in target byte
// order (little-endian, per RSP register conventions).
func appendHexU32LE(dst []byte, v uint32) []byte {
	for i := 0; i < 4; i++ {
		c := byte(v >> (8 * i))
		dst = append(dst, hexDigits[c>>4], hexDigits[c&0xf])
	}
	return dst
}

// parseU32LE decodes 8 hex digits of little-endian register data.
func parseU32LE(b []byte) (uint32, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("gdb: bad register hex %q", b)
	}
	var v uint32
	for i := 0; i < 4; i++ {
		c, err := parseHexByte(b[2*i], b[2*i+1])
		if err != nil {
			return 0, fmt.Errorf("gdb: bad register hex %q", b)
		}
		v |= uint32(c) << (8 * i)
	}
	return v, nil
}

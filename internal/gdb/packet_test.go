package gdb

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// maxReadPayload bounds what readPacket can return: a packet body is at
// most 2*MaxPacketSize bytes, and run-length expansion stops as soon as
// it passes 4*MaxPacketSize, after which at most the rest of the body
// is appended.
const maxReadPayload = 6 * MaxPacketSize

// sealed frames raw as one packet body, unescaped, with a correct
// checksum: '#' bytes, which would end the body early, are dropped.
// It lets the fuzzer reach run-length decoding past the checksum.
func sealed(raw []byte) []byte {
	body := bytes.ReplaceAll(raw, []byte("#"), nil)
	sum := checksum(body)
	frame := append([]byte{'$'}, body...)
	return append(frame, '#', hexDigits[sum>>4], hexDigits[sum&0xf])
}

// FuzzReadPacket drives the RSP packet parser in both ack and no-ack
// mode. On arbitrary input, followed by the same bytes sealed as one
// checksummed packet, it must never panic and never return a payload
// past the expansion bound. A frame built by appendFrame must
// read back as its payload (acked with '+' in ack mode, silently in
// no-ack mode), and the same frame with a corrupted checksum must be
// NAKed in ack mode and fail with ErrChecksum in no-ack mode.
func FuzzReadPacket(f *testing.F) {
	f.Add([]byte("m1000,4"), appendFrame(nil, []byte("OK")))
	f.Add([]byte("a$b#c}d*e"), []byte("+-\x03$OK#9a$OK#00"))
	f.Add([]byte{0x7d, 0x03, '#'}, []byte("$0* #a6$x*~x*~x*~#00$*#2a"))
	f.Add(bytes.Repeat([]byte("x"), 64), []byte("$}#zz"))
	f.Add([]byte("x"), bytes.Repeat([]byte("x*\xff"), 200)) // expansion past the bound
	f.Fuzz(func(t *testing.T, payload, raw []byte) {
		for _, noAck := range []bool{false, true} {
			stream := append(append([]byte(nil), raw...), sealed(raw)...)
			tr := newTransport(&scriptedConn{data: stream, err: io.EOF})
			tr.noAck = noAck
			for {
				p, err := tr.readPacket()
				if errors.Is(err, io.EOF) {
					break
				}
				if len(p) > maxReadPayload {
					t.Fatalf("noAck=%v: %d-byte payload from %d input bytes", noAck, len(p), len(stream))
				}
			}

			frame := appendFrame(nil, payload)
			oversized := len(frame)-4 > 2*MaxPacketSize
			conn := &scriptedConn{data: frame, err: io.EOF}
			tr = newTransport(conn)
			tr.noAck = noAck
			got, err := tr.readPacket()
			if oversized {
				if err == nil {
					t.Fatalf("noAck=%v: accepted a %d-byte frame", noAck, len(frame))
				}
				continue
			}
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("noAck=%v: frame %q read back as %q, %v", noAck, frame, got, err)
			}
			wantAck := "+"
			if noAck {
				wantAck = ""
			}
			if conn.out.String() != wantAck {
				t.Fatalf("noAck=%v: acked %q, want %q", noAck, conn.out.String(), wantAck)
			}

			bad := append([]byte(nil), frame...)
			d, _ := hexVal(bad[len(bad)-1])
			bad[len(bad)-1] = hexDigits[(d+1)&0xf]
			conn = &scriptedConn{data: bad, err: io.EOF}
			tr = newTransport(conn)
			tr.noAck = noAck
			_, err = tr.readPacket()
			if noAck && !errors.Is(err, ErrChecksum) {
				t.Fatalf("no-ack bad checksum: err = %v, want ErrChecksum", err)
			}
			if !noAck && (!errors.Is(err, io.EOF) || conn.out.String() != "-") {
				t.Fatalf("ack-mode bad checksum: err = %v, acked %q; want EOF after a NAK", err, conn.out.String())
			}
		}
	})
}

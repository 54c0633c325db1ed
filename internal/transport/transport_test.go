package transport

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"cosim/internal/obs"
)

// withEachBackend runs the check once per built-in backend.
func withEachBackend(t *testing.T, fn func(t *testing.T, tr Transport)) {
	t.Helper()
	for _, tr := range All() {
		t.Run(tr.Name(), func(t *testing.T) { fn(t, tr) })
	}
}

// readFull reads exactly len(p) bytes, failing the test on timeout via
// the caller's deadline goroutine.
func readFull(t *testing.T, r io.Reader, p []byte) {
	t.Helper()
	if _, err := io.ReadFull(r, p); err != nil {
		t.Fatalf("read: %v", err)
	}
}

func TestPairRoundTrip(t *testing.T) {
	withEachBackend(t, func(t *testing.T, tr Transport) {
		host, guest, err := tr.Pair()
		if err != nil {
			t.Fatal(err)
		}
		defer host.Close()
		defer guest.Close()

		// Both directions; pipe is synchronous, so writes go in
		// goroutines.
		go func() { _, _ = host.Write([]byte("ping")) }()
		buf := make([]byte, 4)
		readFull(t, guest, buf)
		if string(buf) != "ping" {
			t.Fatalf("guest read %q", buf)
		}
		go func() { _, _ = guest.Write([]byte("pong")) }()
		readFull(t, host, buf)
		if string(buf) != "pong" {
			t.Fatalf("host read %q", buf)
		}
	})
}

// TestCloseUnblocksOwnRead is the teardown property the kernel's
// finalizers rely on: a reader goroutine blocked on an endpoint must
// return once that endpoint is closed.
func TestCloseUnblocksOwnRead(t *testing.T) {
	withEachBackend(t, func(t *testing.T, tr Transport) {
		host, guest, err := tr.Pair()
		if err != nil {
			t.Fatal(err)
		}
		defer guest.Close()
		done := make(chan error, 1)
		go func() {
			_, err := host.Read(make([]byte, 1))
			done <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the read block
		if err := host.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("blocked read returned nil error after close")
			}
		case <-time.After(2 * time.Second):
			t.Fatal("read still blocked 2s after close")
		}
	})
}

// TestPeerCloseEOF: closing one end makes the peer's reads drain and
// terminate, and its writes fail.
func TestPeerCloseEOF(t *testing.T) {
	withEachBackend(t, func(t *testing.T, tr Transport) {
		host, guest, err := tr.Pair()
		if err != nil {
			t.Fatal(err)
		}
		defer guest.Close()
		go func() {
			_, _ = host.Write([]byte("last"))
			_ = host.Close()
		}()
		data, _ := io.ReadAll(guest)
		if !bytes.Equal(data, []byte("last")) {
			t.Fatalf("drained %q, want %q", data, "last")
		}
		// The peer's writes must fail (possibly after a buffered grace
		// window on socket backends — retry briefly).
		deadline := time.Now().Add(2 * time.Second)
		for {
			if _, err := guest.Write([]byte("x")); err != nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("writes to a closed peer still succeed after 2s")
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

func TestRingWriteAfterCloseFails(t *testing.T) {
	host, guest, err := Ring.Pair()
	if err != nil {
		t.Fatal(err)
	}
	if err := guest.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := host.Write([]byte("x")); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("write after close = %v, want io.ErrClosedPipe", err)
	}
	if err := guest.Close(); err != nil { // idempotent
		t.Fatalf("second close: %v", err)
	}
}

// TestRingWrap pushes more data than the buffer holds through a slow
// reader, exercising the wraparound copies in both read and write.
func TestRingWrap(t *testing.T) {
	a := newRingBuf(16, 16)
	const total = 1000
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if _, err := a.write([]byte{byte(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := make([]byte, 0, total)
	buf := make([]byte, 7)
	for len(got) < total {
		n, err := a.read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, buf[:n]...)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("byte %d = %#x, want %#x", i, b, byte(i))
		}
	}
}

// TestRingGrow drives a ring that starts with 8 bytes of storage and
// holds up to 64 through writes and reads. Each write carries the next
// bytes of one counting sequence; draining the ring at the end must
// return the whole sequence in order, whatever storage moves happened
// in between.
func TestRingGrow(t *testing.T) {
	type op struct {
		write bool
		n     int
	}
	w := func(n int) op { return op{write: true, n: n} }
	r := func(n int) op { return op{n: n} }
	for _, tc := range []struct {
		name    string
		ops     []op
		storage int // storage after the ops
	}{
		{"fits without growing", []op{w(6), r(4), w(6)}, 8},
		{"grows while the buffered bytes wrap", []op{w(6), r(4), w(5), w(10)}, 32},
		{"doubles several times for one write", []op{w(3), r(2), w(60)}, 64},
		{"stops at the capacity", []op{w(40), r(30), w(50), w(4)}, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rb := newRingBuf(8, 64)
			ep := &ringEndpoint{rd: rb, wr: rb} // a loop: what it writes, it reads back
			var next, want byte
			for _, o := range tc.ops {
				p := make([]byte, o.n)
				if o.write {
					for i := range p {
						p[i] = next
						next++
					}
					if n, err := ep.Write(p); n != o.n || err != nil {
						t.Fatalf("write(%d) = %d, %v", o.n, n, err)
					}
				} else {
					readFull(t, ep, p)
					for i, b := range p {
						if b != want+byte(i) {
							t.Fatalf("read byte %d = %d, want %d", i, b, want+byte(i))
						}
					}
					want += byte(o.n)
				}
				if len(rb.buf) > rb.limit {
					t.Fatalf("storage %d exceeds the capacity %d", len(rb.buf), rb.limit)
				}
			}
			if len(rb.buf) != tc.storage {
				t.Fatalf("storage = %d, want %d", len(rb.buf), tc.storage)
			}
			rest := make([]byte, rb.n)
			readFull(t, ep, rest)
			for i, b := range rest {
				if b != want+byte(i) {
					t.Fatalf("drained byte %d = %d, want %d", i, b, want+byte(i))
				}
			}
		})
	}
}

// TestRingFullBlocksWriter fills one direction of a fresh pair to its
// 64 KiB capacity: the storage grows to exactly that, the writer of one
// byte more blocks until a read frees space, or until Close releases it
// with io.ErrClosedPipe.
func TestRingFullBlocksWriter(t *testing.T) {
	for _, tc := range []struct {
		name    string
		release func(guest Endpoint) error
		wantErr error
	}{
		{"read", func(guest Endpoint) error { _, err := guest.Read(make([]byte, 1)); return err }, nil},
		{"close", func(guest Endpoint) error { return guest.Close() }, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host, guest, err := Ring.Pair()
			if err != nil {
				t.Fatal(err)
			}
			defer host.Close()
			rb := guest.(*ringEndpoint).rd
			type result struct {
				n   int
				err error
			}
			done := make(chan result, 1)
			go func() {
				n, err := host.Write(make([]byte, ringBufSize+1))
				done <- result{n, err}
			}()
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				rb.mu.Lock()
				full, storage := rb.n == ringBufSize, len(rb.buf)
				rb.mu.Unlock()
				if full {
					if storage != ringBufSize {
						t.Fatalf("full ring has %d bytes of storage, want %d", storage, ringBufSize)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("ring never filled")
				}
			}
			time.Sleep(10 * time.Millisecond)
			select {
			case res := <-done:
				t.Fatalf("write to a full ring returned %d, %v without blocking", res.n, res.err)
			default:
			}
			if err := tc.release(guest); err != nil {
				t.Fatal(err)
			}
			select {
			case res := <-done:
				wantN := ringBufSize + 1
				if tc.wantErr != nil {
					wantN = ringBufSize
				}
				if res.n != wantN || !errors.Is(res.err, tc.wantErr) {
					t.Fatalf("write = %d, %v; want %d, %v", res.n, res.err, wantN, tc.wantErr)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("writer still blocked after release")
			}
		})
	}
}

// TestRingPairAllocatesLittle pins on-demand storage: a fresh pair
// allocates its small start buffers, not 2 × 64 KiB.
func TestRingPairAllocatesLittle(t *testing.T) {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, _, err := Ring.Pair(); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got > 4<<10 {
		t.Fatalf("Ring.Pair allocates %d B, want at most 4 KiB", got)
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Transport
	}{
		{"tcp", TCP}, {" ring ", Ring}, {"pipe", Pipe},
	} {
		tr, err := Parse(tc.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.in, err)
		}
		if tr.Name() != tc.want.Name() {
			t.Fatalf("Parse(%q) = %s", tc.in, tr.Name())
		}
	}
	if _, err := Parse("carrier-pigeon"); err == nil {
		t.Fatal("Parse accepted an unknown backend")
	}
}

func TestFlushIsNoOpOnPlainWriters(t *testing.T) {
	var sink bytes.Buffer
	if err := Flush(&sink); err != nil {
		t.Fatal(err)
	}
}

func TestObservedCounters(t *testing.T) {
	reg := obs.NewRegistry()
	tr := Observed(Ring, reg)
	host, guest, err := tr.Pair()
	if err != nil {
		t.Fatal(err)
	}
	defer guest.Close()
	defer host.Close()
	go func() { _, _ = host.Write([]byte("abcde")) }()
	buf := make([]byte, 5)
	readFull(t, guest, buf)
	go func() { _, _ = guest.Write([]byte("xyz")) }()
	readFull(t, host, buf[:3])

	if got := reg.Counter("transport.ring.pairs").Load(); got != 1 {
		t.Fatalf("pairs = %d", got)
	}
	if got := reg.Counter("transport.ring.tx_bytes").Load(); got != 5 {
		t.Fatalf("tx_bytes = %d", got)
	}
	if got := reg.Counter("transport.ring.rx_bytes").Load(); got != 3 {
		t.Fatalf("rx_bytes = %d", got)
	}

	// Nil registry and nil transport pass through unchanged.
	if Observed(Ring, nil) != Ring {
		t.Fatal("nil registry did not pass through")
	}
	if Observed(nil, reg) != nil {
		t.Fatal("nil transport did not pass through")
	}
}

// TestIdleWatchdogExpiresAfterOneTimeout: the first wait on an idle
// watchdog is ended one timeout after it began, not two.
func TestIdleWatchdogExpiresAfterOneTimeout(t *testing.T) {
	const timeout = 100 * time.Millisecond
	expired := make(chan time.Duration, 1)
	start := time.Now()
	w := NewWatchdog(timeout, func() { expired <- time.Since(start) })
	w.Arm()
	var took time.Duration
	select {
	case took = <-expired:
	case <-time.After(10 * timeout):
		t.Fatal("idle watchdog never expired")
	}
	if !w.Disarm() {
		t.Fatal("Disarm did not report the expiry")
	}
	if took < timeout || took >= timeout*3/2 {
		t.Fatalf("idle watchdog expired after %v, want within [%v, %v)", took, timeout, timeout*3/2)
	}
}

// TestStoppedWatchdogEndsNoWait: a wait in progress when the watchdog
// is stopped is never ended, and its timer fires no more.
func TestStoppedWatchdogEndsNoWait(t *testing.T) {
	const timeout = 20 * time.Millisecond
	expired := make(chan struct{}, 1)
	w := NewWatchdog(timeout, func() { expired <- struct{}{} })
	w.Arm()
	w.Stop()
	select {
	case <-expired:
		t.Fatal("a stopped watchdog ended a wait")
	case <-time.After(5 * timeout):
	}
	if w.Disarm() {
		t.Fatal("Disarm reported an expiry after Stop")
	}
}

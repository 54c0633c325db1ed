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
	a := newRingBuf(16)
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

func TestListenDial(t *testing.T) {
	for _, tr := range []Transport{TCP, Unix, Ring} {
		t.Run(tr.Name(), func(t *testing.T) {
			ln, err := tr.Listen()
			if err != nil {
				t.Fatal(err)
			}
			type res struct {
				ep  Endpoint
				err error
			}
			ch := make(chan res, 1)
			go func() {
				ep, err := ln.Accept()
				ch <- res{ep, err}
			}()
			guest, err := tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			r := <-ch
			if r.err != nil {
				t.Fatal(r.err)
			}
			if err := ln.Close(); err != nil {
				t.Fatalf("listener close: %v", err)
			}
			go func() { _, _ = r.ep.Write([]byte("hi")) }()
			buf := make([]byte, 2)
			readFull(t, guest, buf)
			if string(buf) != "hi" {
				t.Fatalf("read %q", buf)
			}
			_ = r.ep.Close()
			_ = guest.Close()

			// A closed listener rejects both halves.
			if _, err := tr.Dial(ln.Addr()); err == nil {
				t.Fatal("dial after listener close succeeded")
			}
			if _, err := ln.Accept(); err == nil {
				t.Fatal("accept after close succeeded")
			}
		})
	}
}

func TestPipeHasNoAddressSpace(t *testing.T) {
	if _, err := Pipe.Listen(); err == nil {
		t.Fatal("pipe Listen succeeded")
	}
	if _, err := Pipe.Dial("x"); err == nil {
		t.Fatal("pipe Dial succeeded")
	}
}

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Transport
	}{
		{"tcp", TCP}, {"UNIX", Unix}, {" ring ", Ring}, {"pipe", Pipe},
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

package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"
)

// probeNominal is the probe time of the nominal host that end-to-end
// timings are scaled to. The probe took 7–14 ms on the 2-vCPU Xeon
// virtual machine the bounds were set on (bench/README.md).
const probeNominal = 10 * time.Millisecond

// A prober times a fixed piece of host work between ops: hashing and
// map inserts, goroutine round trips over a channel, and round trips
// over a loopback TCP connection — the computing, waking and socket
// I/O the co-simulations are made of. On a shared host their speed
// drifts by tens of percent within minutes, and the probe's time moves
// with it. It runs only benchmark code, so no change to the repository
// can move it, except by leaving work running between ops.
type prober struct {
	ping, pong chan int
	conn       net.Conn
	echoed     chan struct{} // closed when the echo side has stopped
}

func newProber() (*prober, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	peer, err := ln.Accept()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("probe: %w", err)
	}
	p := &prober{ping: make(chan int), pong: make(chan int), conn: conn, echoed: make(chan struct{})}
	go func() {
		for v := range p.ping {
			p.pong <- v
		}
		close(p.pong)
	}()
	go func() {
		defer close(p.echoed)
		defer peer.Close()
		_, _ = io.Copy(peer, peer) // echo until the probe side closes
	}()
	return p, nil
}

// probe runs the fixed work once and returns its duration in ms.
func (p *prober) probe() (float64, error) {
	start := time.Now()
	probeSink.Add(int64(probeWork()))
	for i := 0; i < 2000; i++ {
		p.ping <- i
		<-p.pong
	}
	buf := make([]byte, 16)
	for i := 0; i < 300; i++ {
		if _, err := p.conn.Write(buf); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
		if _, err := io.ReadFull(p.conn, buf); err != nil {
			return 0, fmt.Errorf("probe: %w", err)
		}
	}
	return ms(time.Since(start)), nil
}

// Close stops the prober's goroutines and waits for them.
func (p *prober) Close() error {
	close(p.ping)
	<-p.pong
	err := p.conn.Close()
	<-p.echoed
	return err
}

// probeSink keeps the probe's work from being optimised away.
var probeSink atomic.Int64

func probeWork() int {
	buf := make([]byte, 64<<10)
	for i := 0; i < 30; i++ {
		sum := sha256.Sum256(buf)
		buf[i] = sum[0]
	}
	m := make(map[int]int)
	for i := 0; i < 30000; i++ {
		m[i*7] = i
	}
	return len(m) + int(buf[0])
}

// scaleOf converts a timing measured while the probe took probeMs to
// the nominal host: multiply a duration by it, divide a rate by it.
func scaleOf(probeMs float64) float64 { return ms(probeNominal) / probeMs }

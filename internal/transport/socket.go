package transport

import (
	"errors"
	"net"
)

// tcpTransport is the loopback-TCP backend.
type tcpTransport struct{}

func (tcpTransport) Name() string { return "tcp" }

// Pair builds a connected pair with a throwaway listener: listen, dial,
// accept, close the listener. The accept goroutine owns one connection
// end until it is reaped, so every exit path collects it — on a dial
// failure the listener is closed first (unblocking a pending Accept)
// and any connection it nevertheless accepted is closed rather than
// leaked. Dial, accept and listener close errors are joined and
// returned.
func (tcpTransport) Pair() (host, guest Endpoint, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	guest, dialErr := net.Dial("tcp", ln.Addr().String())
	if dialErr != nil {
		closeErr := ln.Close()
		if r := <-ch; r.c != nil {
			_ = r.c.Close()
		}
		return nil, nil, errors.Join(dialErr, closeErr)
	}
	r := <-ch
	closeErr := ln.Close()
	if r.err != nil {
		_ = guest.Close()
		return nil, nil, errors.Join(r.err, closeErr)
	}
	if closeErr != nil {
		_ = guest.Close()
		_ = r.c.Close()
		return nil, nil, closeErr
	}
	return r.c, guest, nil
}

// pipeTransport is the net.Pipe backend.
type pipeTransport struct{}

func (pipeTransport) Name() string { return "pipe" }

func (pipeTransport) Pair() (host, guest Endpoint, err error) {
	h, g := net.Pipe()
	return h, g, nil
}

package core

import (
	"io"
	"time"

	"cosim/internal/dev"
	"cosim/internal/gdb"
	"cosim/internal/iss"
	"cosim/internal/transport"
)

// Transport selects how the two simulators are connected. The paper's
// implementation fixed this as host-OS sockets; here it is the
// pluggable internal/transport abstraction, re-exported so scheme
// consumers keep their core.Transport spellings. See that package for
// the backend semantics and the teardown-ownership contract.
type Transport = transport.Transport

// Endpoint is one closable end of a co-simulation channel
// (transport.Endpoint). Every backend's endpoints implement io.Closer,
// which is the only interface teardown code may rely on.
type Endpoint = transport.Endpoint

// The built-in transport backends under their historical core names.
var (
	// TransportPipe uses net.Pipe (synchronous in-process channel).
	TransportPipe = transport.Pipe
	// TransportTCP uses a loopback TCP connection.
	TransportTCP = transport.TCP
	// TransportRing uses in-process ring buffers — the same-process
	// fast path that skips the socket layer entirely.
	TransportRing = transport.Ring
)

// stopTimeout bounds each wall-clock wait of GDB-Kernel for the stop
// that ends a resume (gdb.Client.SetStopTimeout). A resume runs one
// chunk, so only a peer that stops answering lasts it.
const stopTimeout = time.Second

// shutdownClient tears the connection down: kill, then close. The
// target is already stopped: every resume returns only with its stop,
// and a stop that timed out has closed the link. The close goes through
// io.Closer, never a net.Conn assertion, so it reaches every transport
// backend's endpoints (a ring endpoint is no net.Conn).
func shutdownClient(cl *gdb.Client, conn io.ReadWriter) {
	_ = cl.Kill()
	if c, ok := conn.(io.Closer); ok {
		_ = c.Close()
	}
}

// GDBTarget is a running ISS served by a GDB stub — the software
// simulator process of the GDB schemes.
type GDBTarget struct {
	CPU  *iss.CPU
	Stub *gdb.Stub
	// HostConn is the kernel-side end of the RSP connection.
	HostConn Endpoint

	inline *gdb.Inline // the stub's host end on the ring, else nil
	served chan error  // Serve's result, on every other transport
}

// StartGDBTarget serves cpu with a stub and returns the kernel-side
// connection. Over the ring the stub has no goroutine: it runs on the
// goroutine that reads HostConn (gdb.Inline), since a ring write never
// waits for its reader. Over tcp and pipe it runs in its own goroutine
// (gdb.Stub.Serve), the ISS "process", where serving inline measured
// slower (DESIGN §5.7).
func StartGDBTarget(cpu *iss.CPU, tr Transport) (*GDBTarget, error) {
	host, guest, err := tr.Pair()
	if err != nil {
		return nil, err
	}
	t := &GDBTarget{CPU: cpu}
	if tr.Name() == transport.Ring.Name() {
		t.Stub, t.inline = gdb.NewInline(cpu, host, guest)
		t.HostConn = t.inline
		return t, nil
	}
	t.Stub = gdb.NewStub(cpu, guest)
	t.HostConn, t.served = host, make(chan error, 1)
	go func() {
		t.served <- t.Stub.Serve()
		guest.Close()
	}()
	return t, nil
}

// Wait blocks until the stub exits (after a kill or connection close)
// and returns its error. Over the ring, where the stub runs only
// inside reads, it first answers what the kernel wrote last (a kill).
func (t *GDBTarget) Wait() error {
	if t.inline != nil {
		return t.inline.Wait()
	}
	return <-t.served
}

// DriverTarget is a platform running the RTOS guest, wired to the
// Driver-Kernel sockets — the software simulator process of §4.
type DriverTarget struct {
	Platform *dev.Platform
	// DataHost and IRQHost are the kernel-side ends.
	DataHost Endpoint
	IRQHost  Endpoint
}

// ConnectDriverTarget wires a platform's CosimDev to a fresh channel
// pair per §4.1: the data channel ("port 4444") and the interrupt
// channel ("port 4445"). Each end that is written to is made to write
// ahead of its reader (transport.WriteAhead), since the kernel's
// goroutine does both.
func ConnectDriverTarget(p *dev.Platform, tr Transport) (*DriverTarget, error) {
	dataHost, dataGuest, err := tr.Pair()
	if err != nil {
		return nil, err
	}
	irqHost, irqGuest, err := tr.Pair()
	if err != nil {
		dataHost.Close()
		dataGuest.Close()
		return nil, err
	}
	p.Cosim.ConnectData(dataGuest, transport.WriteAhead(tr, dataGuest))
	p.Cosim.ConnectIRQ(irqGuest)
	return &DriverTarget{
		Platform: p,
		DataHost: transport.WriteAhead(tr, dataHost),
		IRQHost:  transport.WriteAhead(tr, irqHost),
	}, nil
}

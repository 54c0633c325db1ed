package transport

import "cosim/internal/obs"

// Observed wraps tr so every endpoint pair it creates counts into reg:
//
//	transport.<name>.pairs    — endpoint pairs constructed
//	transport.<name>.tx_bytes — bytes written by the kernel (host) side
//	transport.<name>.rx_bytes — bytes read by the kernel (host) side
//
// Only the host end is counted — both directions of the channel cross
// it, so guest-side counting would double every byte. The counter
// handles are resolved here, once, so the per-Read/Write cost is one
// atomic add; with a nil registry (or nil transport) the transport is
// returned unchanged.
func Observed(tr Transport, reg *obs.Registry) Transport {
	if tr == nil || reg == nil {
		return tr
	}
	return newObservedTransport(tr, reg)
}

// newObservedTransport resolves the counter handles, once per wrap.
func newObservedTransport(tr Transport, reg *obs.Registry) *observedTransport {
	prefix := "transport." + tr.Name() + "."
	return &observedTransport{
		Transport: tr,
		pairs:     reg.Counter(prefix + "pairs"),
		tx:        reg.Counter(prefix + "tx_bytes"),
		rx:        reg.Counter(prefix + "rx_bytes"),
	}
}

type observedTransport struct {
	Transport
	pairs, tx, rx *obs.Counter
}

func (o *observedTransport) Pair() (host, guest Endpoint, err error) {
	host, guest, err = o.Transport.Pair()
	if err != nil {
		return nil, nil, err
	}
	o.pairs.Inc()
	return &countedEndpoint{ep: host, tx: o.tx, rx: o.rx}, guest, nil
}

// countedEndpoint counts host-side traffic. It forwards Flush so a
// Buffered underlying endpoint keeps its batch boundaries, and Close so
// teardown ownership is unchanged.
type countedEndpoint struct {
	ep     Endpoint
	tx, rx *obs.Counter
}

func (c *countedEndpoint) Read(p []byte) (int, error) {
	n, err := c.ep.Read(p)
	if n > 0 {
		c.rx.Add(uint64(n))
	}
	return n, err
}

func (c *countedEndpoint) Write(p []byte) (int, error) {
	n, err := c.ep.Write(p)
	if n > 0 {
		c.tx.Add(uint64(n))
	}
	return n, err
}

func (c *countedEndpoint) Close() error { return c.ep.Close() }
func (c *countedEndpoint) Flush() error { return Flush(c.ep) }

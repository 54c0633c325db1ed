package sim

import "fmt"

// This file implements the kernel extensions of Fummi et al. (DATE 2004)
// §3.1: the special port types iss_in / iss_out devoted to communication
// between a SystemC module and an ISS, and the special process type
// iss_process, which starts execution only when new data is present on a
// bound iss_in port.
//
// Ports carry raw byte payloads because on the ISS side they map to
// program variables (GDB-Kernel scheme) or driver message data blocks
// (Driver-Kernel scheme), both of which are untyped memory.

// IssIn is an input port receiving data from an ISS into the SystemC
// model. It is registered in the kernel's ISS port registry under its
// name, which is the name used in Driver-Kernel WRITE messages.
type IssIn struct {
	k       *Kernel
	name    string
	data    []byte
	ev      *Event
	deliver uint64
}

// IssOut is an output port holding data that the ISS will read, either
// because the co-simulation bridge pokes it into a program variable at a
// breakpoint (GDB-Kernel) or because a READ message asked for it
// (Driver-Kernel).
type IssOut struct {
	k       *Kernel
	name    string
	data    []byte
	ev      *Event
	writes  uint64
	onWrite func(data []byte, writes uint64)
}

// ensureIssMaps lazily allocates the registry maps.
func (k *Kernel) ensureIssMaps() {
	if k.issIns == nil {
		k.issIns = make(map[string]*IssIn)
		k.issOuts = make(map[string]*IssOut)
	}
}

// NewIssIn creates and registers an iss_in port.
func (k *Kernel) NewIssIn(name string) *IssIn {
	k.ensureIssMaps()
	if _, dup := k.issIns[name]; dup {
		panic(fmt.Sprintf("sim: duplicate iss_in port %q", name))
	}
	p := &IssIn{k: k, name: name, ev: k.NewEvent(name + ".iss_data")}
	k.issIns[name] = p
	return p
}

// NewIssOut creates and registers an iss_out port.
func (k *Kernel) NewIssOut(name string) *IssOut {
	k.ensureIssMaps()
	if _, dup := k.issOuts[name]; dup {
		panic(fmt.Sprintf("sim: duplicate iss_out port %q", name))
	}
	p := &IssOut{k: k, name: name, ev: k.NewEvent(name + ".iss_read")}
	k.issOuts[name] = p
	return p
}

// IssInPort looks up a registered iss_in port by name.
func (k *Kernel) IssInPort(name string) (*IssIn, bool) {
	p, ok := k.issIns[name]
	return p, ok
}

// IssOutPort looks up a registered iss_out port by name.
func (k *Kernel) IssOutPort(name string) (*IssOut, bool) {
	p, ok := k.issOuts[name]
	return p, ok
}

// Name returns the port name.
func (p *IssIn) Name() string { return p.name }

// Name returns the port name.
func (p *IssOut) Name() string { return p.name }

// Deliver stores data arriving from the ISS and starts every iss_process
// sensitive to the port. It must be called from kernel context (a cycle
// hook or a process), never from a foreign goroutine.
func (p *IssIn) Deliver(data []byte) {
	p.data = append(p.data[:0], data...)
	p.deliver++
	p.ev.Notify()
}

// Bytes returns the most recently delivered payload.
func (p *IssIn) Bytes() []byte { return p.data }

// Uint32 decodes the payload as a little-endian 32-bit value.
func (p *IssIn) Uint32() uint32 { return leU32(p.data) }

// Deliveries returns how many times data has been delivered.
func (p *IssIn) Deliveries() uint64 { return p.deliver }

// Event returns the new-data event (what iss_processes bind to).
func (p *IssIn) Event() *Event { return p.ev }

// Write stores data for the ISS to pick up.
func (p *IssOut) Write(data []byte) {
	p.data = append(p.data[:0], data...)
	p.writes++
	if p.onWrite != nil {
		p.onWrite(p.data, p.writes)
	}
}

// SetOnWrite installs a mirror hook invoked after every Write with the
// stored payload and the new write count. Co-simulation bridges use it
// to keep a granted direct-memory window coherent with the port. Like
// Write itself it runs in kernel context; pass nil to remove the hook.
func (p *IssOut) SetOnWrite(fn func(data []byte, writes uint64)) {
	p.onWrite = fn
}

// WriteUint32 stores a little-endian 32-bit value.
func (p *IssOut) WriteUint32(v uint32) {
	p.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
}

// Bytes returns the currently stored payload (what the ISS will read).
func (p *IssOut) Bytes() []byte { return p.data }

// Writes returns the number of Write calls.
func (p *IssOut) Writes() uint64 { return p.writes }

// ReadEvent returns an event notified each time the co-simulation bridge
// consumes the port's value on behalf of the ISS.
func (p *IssOut) ReadEvent() *Event { return p.ev }

// Consumed is called by co-simulation bridges after transferring the
// port value to the ISS; it notifies ReadEvent so models can produce the
// next value.
func (p *IssOut) Consumed() { p.ev.Notify() }

// IssProcess registers a process that runs only when new data is
// delivered on any of the bound iss_in ports — never at initialization,
// "thus sensibly reducing co-simulation overhead" (§3.3).
func (k *Kernel) IssProcess(name string, fn func(), ins ...*IssIn) *Proc {
	if len(ins) == 0 {
		panic("sim: iss_process needs at least one iss_in port")
	}
	p := &Proc{k: k, name: name, kind: issProc, fn: fn}
	for _, in := range ins {
		in.ev.addStatic(p)
		p.static = append(p.static, in.ev)
	}
	k.procs = append(k.procs, p)
	return p
}

// leU32 decodes up to 4 little-endian bytes.
func leU32(b []byte) uint32 {
	var v uint32
	for i := 0; i < len(b) && i < 4; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}

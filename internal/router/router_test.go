package router

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"cosim/internal/asm"
	"cosim/internal/iss"
	"cosim/internal/sim"
)

func TestChecksum16KnownValues(t *testing.T) {
	cases := []struct {
		in   []byte
		want uint16
	}{
		{nil, 0xffff},
		{[]byte{0x01, 0x00}, 0xfffe},
		{[]byte{0xff, 0xff}, 0x0000},
		{[]byte{0x01, 0x02, 0x03, 0x04}, ^uint16(0x0201 + 0x0403)},
		{[]byte{0x01}, 0xfffe}, // odd tail
	}
	for _, c := range cases {
		if got := Checksum16(c.in); got != c.want {
			t.Errorf("Checksum16(% x) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	f := func(data []byte, idx int, bit uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := idx % len(data)
		if i < 0 {
			i = -i
		}
		orig := Checksum16(data)
		data[i] ^= 1 << (bit % 8)
		changed := Checksum16(data)
		// Ones'-complement sums detect any single bit flip.
		return orig != changed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestChecksumAsmEquivalence runs the guest csum16 routine on the ISS
// against random buffers and checks it matches the Go reference — the
// core correctness property the whole case study rests on.
func TestChecksumAsmEquivalence(t *testing.T) {
	harnessSrc := `
_start:
    la   a0, buf
    la   t0, buflen
    lw   a1, 0(t0)
    call csum16
    la   t0, result
    sw   a0, 0(t0)
    halt
.data
.align 4
buflen: .word 0
result: .word 0
buf:    .space 512
`
	im, err := asm.Assemble(asm.Options{DataBase: 0x10000},
		asm.Source{Name: "harness.s", Text: harnessSrc},
		asm.Source{Name: "csum.s", Text: csumSrc})
	if err != nil {
		t.Fatal(err)
	}
	bufAddr := im.MustSymbol("buf")
	lenAddr := im.MustSymbol("buflen")
	resAddr := im.MustSymbol("result")

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(256)
		if n%2 == 1 {
			n++ // the guest buffer is halfword-aligned; keep even+odd mix below
		}
		if trial%3 == 0 {
			n++ // exercise the odd-tail path too
		}
		data := make([]byte, n)
		rng.Read(data)

		ram := iss.NewRAM(1 << 20)
		if err := im.LoadInto(ram); err != nil {
			t.Fatal(err)
		}
		if err := ram.LoadBytes(bufAddr, data); err != nil {
			t.Fatal(err)
		}
		if err := ram.Write(lenAddr, 4, uint32(n)); err != nil {
			t.Fatal(err)
		}
		cpu := iss.New(iss.NewSystemBus(ram))
		cpu.Reset(im.Entry)
		stop, _ := cpu.Run(100_000)
		if stop != iss.StopHalt {
			t.Fatalf("trial %d: guest stopped with %v", trial, stop)
		}
		got, _ := ram.Read(resAddr, 4)
		want := uint32(Checksum16(data))
		if got != want {
			t.Fatalf("trial %d (len %d): asm=%#x go=%#x", trial, n, got, want)
		}
	}
}

func TestPacketBlobLayout(t *testing.T) {
	p := &Packet{Src: 3, Dst: 1, ID: 0x11223344, Payload: []uint32{0xAABBCCDD}}
	p.Seal()
	blob := p.Blob()
	if got := binary.LittleEndian.Uint32(blob[0:4]); got != uint32(HeaderBytes+4) {
		t.Fatalf("region length = %d", got)
	}
	if blob[4] != 3 || blob[5] != 1 {
		t.Fatalf("src/dst = %d/%d", blob[4], blob[5])
	}
	if got := binary.LittleEndian.Uint32(blob[8:12]); got != 0x11223344 {
		t.Fatalf("id = %#x", got)
	}
	if got := binary.LittleEndian.Uint32(blob[12:16]); got != 0xAABBCCDD {
		t.Fatalf("payload = %#x", got)
	}
	if len(blob) > MaxBlobBytes {
		t.Fatalf("blob %d bytes exceeds MaxBlobBytes", len(blob))
	}
}

func TestSealAndValid(t *testing.T) {
	p := &Packet{Src: 1, Dst: 2, ID: 7, Payload: []uint32{1, 2, 3}}
	p.Seal()
	if !p.Valid() {
		t.Fatal("sealed packet not valid")
	}
	p.Checksum ^= 1
	if p.Valid() {
		t.Fatal("corrupted packet still valid")
	}
}

// fakeCPU services the router's pkt/csum ports inside the simulation,
// so the router model can be tested without an ISS: an iss_process
// computes the checksum whenever a packet blob is consumed.
func fakeCPU(k *sim.Kernel, corrupt bool) (*sim.IssOut, *sim.IssIn) {
	pkt := k.NewIssOut(PktPortName)
	csum := k.NewIssIn(CsumPortName)
	poll := k.NewEvent("fakecpu.poll")
	served := uint64(0)
	k.MethodNoInit("fakecpu", func() {
		if pkt.Writes() > served {
			served = pkt.Writes()
			blob := pkt.Bytes()
			n := binary.LittleEndian.Uint32(blob[0:4])
			sum := Checksum16(blob[4 : 4+n])
			if corrupt {
				sum ^= 0xff
			}
			pkt.Consumed()
			// Answer one delta later, like a real (fast) CPU.
			out := make([]byte, 4)
			binary.LittleEndian.PutUint32(out, uint32(sum))
			k.CallAfter(100*sim.NS, func() { csum.Deliver(out) })
		}
		poll.NotifyAfter(50 * sim.NS)
	}, poll)
	poll.NotifyAfter(50 * sim.NS)
	return pkt, csum
}

func TestRouterForwardsByTable(t *testing.T) {
	k := sim.NewKernel("t")
	pkt, csum := fakeCPU(k, false)
	r := New(k, "rt", Config{FifoDepth: 8, Table: map[uint8]int{9: 2}}, []Engine{{Pkt: pkt, Csum: csum}})

	sent := []*Packet{
		{Src: 0, Dst: 0, ID: 1, Payload: []uint32{1}},
		{Src: 0, Dst: 9, ID: 2, Payload: []uint32{2}}, // via table -> port 2
		{Src: 1, Dst: 3, ID: 3, Payload: []uint32{3}},
	}
	for _, p := range sent {
		p.Seal()
	}
	k.Thread("feeder", func(c *sim.Ctx) {
		for _, p := range sent {
			r.In[p.Src].TryWrite(p)
			c.WaitTime(sim.US)
		}
		c.WaitTime(10 * sim.US)
		k.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()

	if r.Stats().Forwarded != 3 {
		t.Fatalf("forwarded = %d", r.Stats().Forwarded)
	}
	if got, _ := r.Out[0].TryRead(); got == nil || got.ID != 1 {
		t.Fatalf("out0 = %v", got)
	}
	if got, _ := r.Out[2].TryRead(); got == nil || got.ID != 2 {
		t.Fatalf("out2 = %v (table route)", got)
	}
	if got, _ := r.Out[3].TryRead(); got == nil || got.ID != 3 {
		t.Fatalf("out3 = %v", got)
	}
}

func TestRouterDropsCorrupted(t *testing.T) {
	k := sim.NewKernel("t")
	pkt, csum := fakeCPU(k, true) // CPU reports wrong checksums
	r := New(k, "rt", Config{FifoDepth: 8}, []Engine{{Pkt: pkt, Csum: csum}})
	p := &Packet{Src: 0, Dst: 1, ID: 1, Payload: []uint32{5}}
	p.Seal()
	k.Thread("feeder", func(c *sim.Ctx) {
		r.In[0].TryWrite(p)
		c.WaitTime(10 * sim.US)
		k.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if r.Stats().Corrupted != 1 || r.Stats().Forwarded != 0 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestProducerConservation(t *testing.T) {
	k := sim.NewKernel("t")
	in := sim.NewFifo[*Packet](k, "in", 4)
	ids := &IDSource{}
	p := NewProducer(k, "prod", 0, in, ids, ProducerConfig{
		Delay: sim.US, Count: 20, Seed: 5,
	})
	// No consumer: the queue fills and drops accumulate.
	k.Thread("stopper", func(c *sim.Ctx) {
		c.WaitTime(100 * sim.US)
		k.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if p.Generated != 20 {
		t.Fatalf("generated = %d", p.Generated)
	}
	if p.Offered+p.InDrops != p.Generated {
		t.Fatalf("conservation: offered %d + drops %d != generated %d", p.Offered, p.InDrops, p.Generated)
	}
	if p.Offered != 4 {
		t.Fatalf("offered = %d, want fifo depth 4", p.Offered)
	}
	if !p.Done() {
		t.Fatal("bounded producer not done")
	}
}

func TestProducerSealsValidPackets(t *testing.T) {
	k := sim.NewKernel("t")
	in := sim.NewFifo[*Packet](k, "in", 64)
	ids := &IDSource{}
	NewProducer(k, "prod", 2, in, ids, ProducerConfig{Delay: sim.US, Count: 10, Seed: 1})
	k.Thread("stopper", func(c *sim.Ctx) { c.WaitTime(50 * sim.US); k.Stop() })
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	seen := map[uint32]bool{}
	for {
		p, ok := in.TryRead()
		if !ok {
			break
		}
		if !p.Valid() {
			t.Fatalf("producer emitted invalid packet %v", p)
		}
		if p.Src != 2 {
			t.Fatalf("src = %d", p.Src)
		}
		if seen[p.ID] {
			t.Fatalf("duplicate id %d", p.ID)
		}
		seen[p.ID] = true
	}
	if len(seen) != 10 {
		t.Fatalf("got %d packets", len(seen))
	}
}

func TestConsumerVerifies(t *testing.T) {
	k := sim.NewKernel("t")
	q := sim.NewFifo[*Packet](k, "out", 8)
	routeOK := func(dst uint8, out int) bool { return int(dst)%NumPorts == out }
	cons := NewConsumer(k, "cons", 1, q, routeOK)
	k.Thread("feeder", func(c *sim.Ctx) {
		good := &Packet{Src: 0, Dst: 1, ID: 1, Payload: []uint32{1}, Born: c.Now()}
		good.Seal()
		q.TryWrite(good)
		bad := &Packet{Src: 0, Dst: 1, ID: 2, Payload: []uint32{2}, Born: c.Now()}
		bad.Seal()
		bad.Payload[0] = 99 // corrupt after sealing
		q.TryWrite(bad)
		wrong := &Packet{Src: 0, Dst: 2, ID: 3, Payload: []uint32{3}, Born: c.Now()}
		wrong.Seal() // dst 2 should not arrive on out 1
		q.TryWrite(wrong)
		c.WaitTime(10 * sim.US)
		k.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if cons.Received != 3 || cons.BadContent != 1 || cons.Misrouted != 1 {
		t.Fatalf("consumer: %+v", cons)
	}
}

func TestGuestBuildsAndBindings(t *testing.T) {
	im, err := BuildGDBGuest()
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"pkt_blob", "csum_out", "bp_recv", "bp_send", "csum16"} {
		if _, ok := im.Symbol(sym); !ok {
			t.Errorf("GDB guest missing symbol %q", sym)
		}
	}
	if _, err := BuildDriverGuest(); err != nil {
		t.Fatal(err)
	}
	if len(GDBBindings()) != 2 || len(DriverPorts()) != 2 {
		t.Fatal("binding sets incomplete")
	}
	// The guest's receive buffer must hold the largest blob.
	if MaxBlobBytes > 256 {
		t.Fatalf("MaxBlobBytes %d exceeds the guest's 256-byte buffer", MaxBlobBytes)
	}
}

func TestRouterMulticast(t *testing.T) {
	k := sim.NewKernel("t")
	pkt, csum := fakeCPU(k, false)
	r := New(k, "rt", Config{FifoDepth: 8}, []Engine{{Pkt: pkt, Csum: csum}})
	bc := &Packet{Src: 0, Dst: BroadcastDst, ID: 1, Payload: []uint32{7}}
	bc.Seal()
	k.Thread("feeder", func(c *sim.Ctx) {
		r.In[0].TryWrite(bc)
		c.WaitTime(10 * sim.US)
		k.Stop()
	})
	if err := k.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	st := r.Stats()
	if st.Forwarded != 1 || st.Copies != NumPorts {
		t.Fatalf("stats = %+v", st)
	}
	for i := 0; i < NumPorts; i++ {
		got, ok := r.Out[i].TryRead()
		if !ok || got.ID != 1 {
			t.Fatalf("output %d missing the broadcast copy", i)
		}
		if !r.RouteOK(got.Dst, i) {
			t.Fatalf("RouteOK rejects broadcast on port %d", i)
		}
	}
}

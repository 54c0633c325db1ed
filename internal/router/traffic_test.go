package router

import (
	"errors"
	"runtime"
	"testing"

	"cosim/internal/sim"
)

// newTraffic attaches 4 coincident producers (Delay 3µs, Seed 2) that
// all feed one shared FIFO.
func newTraffic(k *sim.Kernel) *sim.Fifo[*Packet] {
	q := sim.NewFifo[*Packet](k, "q", 64)
	ids, pool := &IDSource{}, NewPool(0, 0)
	for i := 0; i < 4; i++ {
		NewProducer(k, "prod"+itoa(i), uint8(i), q, ids, pool, ProducerConfig{Delay: 3 * sim.US, Seed: 2})
	}
	return q
}

// TestTrafficRunsWithoutGoroutines checks that producers and consumers
// are method processes: a run starts no goroutine, and each packet
// costs one producer activation plus a share of one consumer drain.
func TestTrafficRunsWithoutGoroutines(t *testing.T) {
	k := sim.NewKernel("t")
	defer k.Shutdown()
	q := newTraffic(k)
	cons := NewConsumer(k, "cons", 0, q, func(uint8, int) bool { return true })
	before := runtime.NumGoroutine()
	if err := k.Run(10 * sim.US); err != nil {
		t.Fatal(err)
	}
	// Only a rise is checked: a killed thread of an earlier test may
	// still be exiting.
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines %d -> %d across the run, want no new one", before, after)
	}
	// Init: 4 producers + 1 consumer; at 3, 6 and 9µs: 4 producers and
	// one consumer drain of the 4 coincident packets.
	if cons.Received != 12 || k.Activations() != 20 {
		t.Errorf("received %d, activations %d; want 12 and 20", cons.Received, k.Activations())
	}
	if cons.BadContent != 0 || cons.Misrouted != 0 || q.Len() != 0 {
		t.Errorf("consumer %+v, %d left queued", cons, q.Len())
	}
}

// TestBoundedProducerStops checks that a producer with a Count arms no
// further tick once it is done, so the kernel runs out of work.
func TestBoundedProducerStops(t *testing.T) {
	k := sim.NewKernel("t")
	defer k.Shutdown()
	q := sim.NewFifo[*Packet](k, "q", 8)
	p := NewProducer(k, "prod", 0, q, &IDSource{}, NewPool(0, 0), ProducerConfig{Count: 3, Delay: sim.US})
	if err := k.Run(10 * sim.US); !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("Run = %v, want ErrDeadlock", err)
	}
	if k.Now() != 3*sim.US || p.Generated != 3 || !p.Done() || k.Activations() != 4 {
		t.Errorf("now %v, generated %d, done %v, activations %d; want 3us, 3, true, 4",
			k.Now(), p.Generated, p.Done(), k.Activations())
	}
}

// TestCoincidentProducersKeepOrder pins the first packets of producers
// that fire at the same instants: they run in registration order and
// draw identifiers from the shared source in that order.
func TestCoincidentProducersKeepOrder(t *testing.T) {
	k := sim.NewKernel("t")
	defer k.Shutdown()
	q := newTraffic(k)
	if err := k.Run(6 * sim.US); err != nil {
		t.Fatal(err)
	}
	type key struct {
		Born sim.Time
		Src  uint8
		ID   uint32
	}
	want := []key{
		{3 * sim.US, 0, 1}, {3 * sim.US, 1, 2}, {3 * sim.US, 2, 3}, {3 * sim.US, 3, 4},
		{6 * sim.US, 0, 5}, {6 * sim.US, 1, 6}, {6 * sim.US, 2, 7}, {6 * sim.US, 3, 8},
	}
	for i, w := range want {
		pkt, ok := q.TryRead()
		if !ok {
			t.Fatalf("packet %d missing", i)
		}
		if got := (key{pkt.Born, pkt.Src, pkt.ID}); got != w {
			t.Errorf("packet %d = %+v, want %+v", i, got, w)
		}
	}
}

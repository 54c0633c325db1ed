package sim

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSignalUpdateSemantics(t *testing.T) {
	k := NewKernel("t")
	s := NewSignal[int](k, "s")
	var observedDuringWrite int
	k.Method("writer", func() {
		s.Write(42)
		observedDuringWrite = s.Read() // must still be the old value
	})
	runKernel(t, k, NS)
	if observedDuringWrite != 0 {
		t.Fatalf("read-after-write in same eval = %d, want 0", observedDuringWrite)
	}
	if s.Read() != 42 {
		t.Fatalf("after update, Read = %d, want 42", s.Read())
	}
}

func TestSignalLastWriteWins(t *testing.T) {
	k := NewKernel("t")
	s := NewSignal[int](k, "s")
	k.Method("writer", func() {
		s.Write(1)
		s.Write(2)
		s.Write(3)
	})
	runKernel(t, k, NS)
	if s.Read() != 3 {
		t.Fatalf("Read = %d, want 3", s.Read())
	}
}

func TestSignalChangedEvent(t *testing.T) {
	k := NewKernel("t")
	s := NewSignal[int](k, "s")
	changes := 0
	k.MethodNoInit("watcher", func() { changes++ }, s.Changed())
	k.Method("writer", func() { s.Write(7) })
	e := k.NewEvent("again")
	k.MethodNoInit("rewriter", func() { s.Write(7) }, e) // same value: no change
	e.NotifyAfter(5 * NS)
	runKernel(t, k, 100*NS)
	if changes != 1 {
		t.Fatalf("value_changed fired %d times, want 1", changes)
	}
}

func TestSignalInit(t *testing.T) {
	k := NewKernel("t")
	s := NewSignalInit(k, "s", 99)
	if s.Read() != 99 {
		t.Fatalf("initial value = %d, want 99", s.Read())
	}
}

func TestPortsBindAndTransfer(t *testing.T) {
	k := NewKernel("t")
	s := NewSignal[uint32](k, "wire")
	out := NewOut[uint32]("out")
	in := NewIn[uint32]("in")
	out.Bind(s)
	in.Bind(s)
	if !out.Bound() || !in.Bound() {
		t.Fatal("ports not bound")
	}
	var got uint32
	k.MethodNoInit("rx", func() { got = in.Read() }, in.Changed())
	k.Method("tx", func() { out.Write(0xdeadbeef) })
	runKernel(t, k, NS)
	if got != 0xdeadbeef {
		t.Fatalf("got %#x", got)
	}
}

func TestFifoTryWriteDrops(t *testing.T) {
	k := NewKernel("t")
	f := NewFifo[int](k, "f", 3)
	k.Method("p", func() {
		for i := 0; i < 5; i++ {
			f.TryWrite(i)
		}
	})
	runKernel(t, k, NS)
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3", f.Len())
	}
	if f.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", f.Dropped())
	}
}

func TestFifoPeek(t *testing.T) {
	k := NewKernel("t")
	f := NewFifo[string](k, "f", 4)
	if _, ok := f.Peek(); ok {
		t.Fatal("Peek on empty fifo succeeded")
	}
	f.TryWrite("x")
	f.TryWrite("y")
	if v, ok := f.Peek(); !ok || v != "x" {
		t.Fatalf("Peek = %q, %v", v, ok)
	}
	if f.Len() != 2 {
		t.Fatal("Peek consumed an item")
	}
	k.Shutdown()
}

func TestFifoRingKeepsOrder(t *testing.T) {
	// Interleaved writes and reads wrap the ring and grow it while it
	// holds items; reads must still return the writes in order.
	k := NewKernel("t")
	f := NewFifo[int](k, "f", 7)
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%5+1; i++ {
			if f.TryWrite(next) {
				next++
			}
		}
		for i := 0; i < round%3+1; i++ {
			v, ok := f.TryRead()
			if !ok {
				break
			}
			if v != want {
				t.Fatalf("round %d: read %d, want %d", round, v, want)
			}
			want++
		}
		if f.Len() != next-want || f.Free() != f.Cap()-f.Len() {
			t.Fatalf("round %d: Len %d Free %d, want %d stored", round, f.Len(), f.Free(), next-want)
		}
	}
	if want == 0 || f.Dropped() == 0 {
		t.Fatalf("read %d items, dropped %d: the pattern must both drain and fill the FIFO", want, f.Dropped())
	}
}

func TestFifoConservation(t *testing.T) {
	// Property: writes accepted == reads + still-buffered, drops counted.
	f := func(ops []bool) bool {
		k := NewKernel("q")
		fifo := NewFifo[int](k, "f", 4)
		writes, reads := uint64(0), uint64(0)
		for _, isWrite := range ops {
			if isWrite {
				if fifo.TryWrite(1) {
					writes++
				}
			} else {
				if _, ok := fifo.TryRead(); ok {
					reads++
				}
			}
		}
		return writes == reads+uint64(fifo.Len()) &&
			fifo.TotalWritten() == writes && fifo.TotalRead() == reads
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClockEdges(t *testing.T) {
	k := NewKernel("t")
	clk := NewClock(k, "clk", 10*NS)
	var posTimes, negTimes []Time
	k.MethodNoInit("p", func() { posTimes = append(posTimes, k.Now()) }, clk.Pos())
	k.MethodNoInit("n", func() { negTimes = append(negTimes, k.Now()) }, clk.Neg())
	runKernel(t, k, 51*NS)
	// First posedge at 5ns, then 15, 25, 35, 45.
	if len(posTimes) != 5 {
		t.Fatalf("pos edges = %v", posTimes)
	}
	if posTimes[0] != 5*NS || posTimes[1] != 15*NS {
		t.Fatalf("pos edges = %v", posTimes)
	}
	if len(negTimes) != 5 {
		t.Fatalf("neg edges = %v", negTimes)
	}
	if negTimes[0] != 10*NS {
		t.Fatalf("neg edges = %v", negTimes)
	}
	if clk.Ticks() != 5 {
		t.Fatalf("ticks = %d", clk.Ticks())
	}
}

// TestClockRejectsOddPeriod: a 3ps clock would tick every 1ps, a 2ps
// period, so NewClock refuses a period with no whole half.
func TestClockRejectsOddPeriod(t *testing.T) {
	for _, period := range []Time{1, 3, 1001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewClock(%v) did not panic", period)
				}
			}()
			NewClock(NewKernel("t"), "c", period)
		}()
	}
}

func TestClockSignalFollowsEdges(t *testing.T) {
	k := NewKernel("t")
	clk := NewClock(k, "clk", 10*NS)
	high, low := 0, 0
	k.MethodNoInit("watch", func() {
		if clk.Signal().Read() {
			high++
		} else {
			low++
		}
	}, clk.Signal().Changed())
	runKernel(t, k, 100*NS)
	if high == 0 || low == 0 {
		t.Fatalf("high=%d low=%d", high, low)
	}
}

func TestTracerVCDOutput(t *testing.T) {
	k := NewKernel("t")
	var buf bytes.Buffer
	tr := NewTracer(k, &buf, "top")
	clk := NewClock(k, "clk", 10*NS)
	cnt := NewSignal[uint32](k, "count")
	TraceBool(tr, clk.Signal())
	TraceUint(tr, cnt, 8)
	v := uint32(0)
	k.MethodNoInit("counter", func() { v++; cnt.Write(v) }, clk.Pos())
	runKernel(t, k, 100*NS)
	out := buf.String()
	for _, want := range []string{
		"$timescale", "$var wire 1 ! clk $end", "$var wire 8 \" count $end",
		"$enddefinitions", "#5000", "b101 \"",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD output missing %q\n%s", want, out)
		}
	}
	if tr.Err() != nil {
		t.Fatalf("tracer error: %v", tr.Err())
	}
}

func TestVCDCodesUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10000; i++ {
		c := vcdCode(i)
		if seen[c] {
			t.Fatalf("duplicate code %q at %d", c, i)
		}
		seen[c] = true
		for _, ch := range []byte(c) {
			if ch < 33 || ch > 126 {
				t.Fatalf("non-printable code byte %d", ch)
			}
		}
	}
}

func TestTimedQueueHeapProperty(t *testing.T) {
	// Property: popping the queue yields times in non-decreasing order,
	// with FIFO order among equal times.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := NewKernel("t")
		n := 200
		type rec struct {
			tm  Time
			seq int
		}
		var scheduled []rec
		for i := 0; i < n; i++ {
			e := k.NewEvent("e")
			tm := Time(rng.Intn(20)) * NS
			e.due = tm
			e.pending = pendingTimed
			k.timed.push(e)
			scheduled = append(scheduled, rec{tm, i})
		}
		var last Time
		for k.timed.Len() > 0 {
			e := k.timed.pop()
			if e.due < last {
				t.Fatalf("heap order violated: %v after %v", e.due, last)
			}
			last = e.due
		}
		_ = scheduled
	}
}

func TestTimedQueueRemove(t *testing.T) {
	k := NewKernel("t")
	events := make([]*Event, 10)
	for i := range events {
		e := k.NewEvent("e")
		e.due = Time(i) * NS
		e.pending = pendingTimed
		k.timed.push(e)
		events[i] = e
	}
	k.timed.remove(events[3])
	k.timed.remove(events[0])
	k.timed.remove(events[9])
	var got []Time
	for k.timed.Len() > 0 {
		got = append(got, k.timed.pop().due)
	}
	want := []Time{1 * NS, 2 * NS, 4 * NS, 5 * NS, 6 * NS, 7 * NS, 8 * NS}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestIssPortsAndProcess(t *testing.T) {
	k := NewKernel("t")
	in := k.NewIssIn("data_in")
	out := k.NewIssOut("result_out")
	runs := 0
	k.IssProcess("checksum_rx", func() {
		runs++
		out.WriteUint32(in.Uint32() + 1)
	}, in)

	// iss_process must NOT run at initialization (§3.3).
	if err := k.Run(NS); err != nil && err != ErrDeadlock {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("iss_process ran %d times before any delivery", runs)
	}

	// Delivering data triggers the process.
	k.AddCycleHook(func(kk *Kernel) {
		if kk.Now() == NS && in.Deliveries() == 0 {
			in.Deliver([]byte{9, 0, 0, 0})
		}
	})
	ev := k.NewEvent("ticker")
	k.MethodNoInit("tick", func() { ev.NotifyAfter(NS) }, ev)
	ev.NotifyAfter(NS)
	if err := k.Run(5 * NS); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if runs != 1 {
		t.Fatalf("iss_process ran %d times, want 1", runs)
	}
	if got := leU32(out.Bytes()); got != 10 {
		t.Fatalf("iss_out = %d, want 10", got)
	}
}

func TestIssPortRegistry(t *testing.T) {
	k := NewKernel("t")
	in := k.NewIssIn("a")
	out := k.NewIssOut("b")
	if p, ok := k.IssInPort("a"); !ok || p != in {
		t.Fatal("IssInPort lookup failed")
	}
	if p, ok := k.IssOutPort("b"); !ok || p != out {
		t.Fatal("IssOutPort lookup failed")
	}
	if _, ok := k.IssInPort("nope"); ok {
		t.Fatal("lookup of unknown port succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate port name did not panic")
		}
	}()
	k.NewIssIn("a")
}

func TestIssOutConsumed(t *testing.T) {
	k := NewKernel("t")
	out := k.NewIssOut("r")
	notified := 0
	k.MethodNoInit("prod", func() { notified++ }, out.ReadEvent())
	k.Method("init", func() { out.WriteUint32(5) })
	k.AddCycleHook(func(kk *Kernel) {
		if out.Writes() == 1 && notified == 0 && kk.Now() > 0 {
			out.Consumed()
		}
	})
	ev := k.NewEvent("tick")
	k.MethodNoInit("t", func() {}, ev)
	ev.NotifyAfter(NS)
	runKernel(t, k, 2*NS)
	if notified != 1 {
		t.Fatalf("ReadEvent notified %d times, want 1", notified)
	}
}

func TestLeU32(t *testing.T) {
	if got := leU32([]byte{0x78, 0x56, 0x34, 0x12}); got != 0x12345678 {
		t.Fatalf("leU32 = %#x", got)
	}
	if got := leU32([]byte{0xff}); got != 0xff {
		t.Fatalf("leU32 short = %#x", got)
	}
	if got := leU32(nil); got != 0 {
		t.Fatalf("leU32 nil = %#x", got)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n > 64 {
		return 0, errWriterBroke
	}
	return len(p), nil
}

var errWriterBroke = &writerError{}

type writerError struct{}

func (*writerError) Error() string { return "writer broke" }

func TestTracerReportsWriteErrors(t *testing.T) {
	k := NewKernel("t")
	tr := NewTracer(k, &failWriter{}, "top")
	clk := NewClock(k, "clk", 10*NS)
	TraceBool(tr, clk.Signal())
	runKernel(t, k, 200*NS)
	if tr.Err() == nil {
		t.Fatal("tracer swallowed the write error")
	}
}

func TestTracerLateAddPanics(t *testing.T) {
	k := NewKernel("t")
	tr := NewTracer(k, &failWriter{}, "top")
	clk := NewClock(k, "clk", 10*NS)
	TraceBool(tr, clk.Signal())
	_ = k.Run(50 * NS)
	defer func() {
		k.Shutdown()
		if recover() == nil {
			t.Fatal("adding a signal after start did not panic")
		}
	}()
	s := NewSignal[bool](k, "late")
	TraceBool(tr, s)
}

package iss

import (
	"bytes"
	"testing"
)

// TestBusAccesses runs one sequence of accesses through a SystemBus
// whose only device sits inside the RAM range, so device precedence
// and the lowest-device-base shortcut are both in play.
func TestBusAccesses(t *testing.T) {
	ram := NewRAM(0x10000)
	bus := NewSystemBus(ram)
	dev := &echoDev{}
	if err := bus.Map(0x8000, dev); err != nil {
		t.Fatal(err)
	}
	// RAM under the device: the bus must never show it.
	if err := ram.Write(0x8004, 4, 0x5555); err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		write bool
		addr  uint32
		size  int
		v     uint32 // stored, or wanted by a read
		fail  bool
		pages int // RAM pages allocated afterwards
	}{
		{name: "word store", write: true, addr: 0x100, size: 4, v: 0xdeadbeef, pages: 2},
		{name: "word load", addr: 0x100, size: 4, v: 0xdeadbeef, pages: 2},
		{name: "half load", addr: 0x102, size: 2, v: 0xdead, pages: 2},
		{name: "byte load", addr: 0x101, size: 1, v: 0xbe, pages: 2},
		{name: "half store", write: true, addr: 0x104, size: 2, v: 0x1234, pages: 2},
		{name: "byte store", write: true, addr: 0x107, size: 1, v: 0xab, pages: 2},
		{name: "word after half and byte", addr: 0x104, size: 4, v: 0xab001234, pages: 2},
		{name: "straddling store", write: true, addr: 0xffe, size: 4, v: 0x11223344, pages: 3},
		{name: "straddling load", addr: 0xffe, size: 4, v: 0x11223344, pages: 3},
		{name: "load from the second page", addr: 0x1000, size: 2, v: 0x1122, pages: 3},
		{name: "straddling half", addr: 0xfff, size: 2, v: 0x2233, pages: 3},
		{name: "untouched page", addr: 0x5000, size: 4, v: 0, pages: 3},
		{name: "untouched straddle", addr: 0x5ffe, size: 4, v: 0, pages: 3},
		{name: "load beyond the limit", addr: 0x10000, size: 4, fail: true, pages: 3},
		{name: "store across the limit", write: true, addr: 0xfffe, size: 4, fail: true, pages: 3},
		{name: "bad size", addr: 0x100, size: 3, fail: true, pages: 3},
		{name: "store just below the device", write: true, addr: 0x7ffc, size: 4, v: 0x77, pages: 4},
		{name: "load just below the device", addr: 0x7ffc, size: 4, v: 0x77, pages: 4},
		{name: "store at the device base", write: true, addr: 0x8000, size: 4, v: 55, pages: 4},
		{name: "device precedence over RAM", addr: 0x8004, size: 4, v: 59, pages: 4},
	}
	for _, s := range steps {
		var got uint32
		var err error
		if s.write {
			err = bus.Write(s.addr, s.size, s.v)
		} else {
			got, err = bus.Read(s.addr, s.size)
		}
		switch {
		case s.fail && err == nil:
			t.Errorf("%s: access at %#x succeeded", s.name, s.addr)
		case !s.fail && err != nil:
			t.Errorf("%s: %v", s.name, err)
		case !s.write && !s.fail && got != s.v:
			t.Errorf("%s: read %#x, want %#x", s.name, got, s.v)
		}
		if len(ram.pages) != s.pages {
			t.Errorf("%s: %d pages allocated, want %d", s.name, len(ram.pages), s.pages)
		}
	}
	if dev.last != 55 {
		t.Errorf("device saw %d, want 55", dev.last)
	}
	if v, _ := ram.Read(0x8000, 4); v != 0 {
		t.Errorf("device store reached RAM: %#x", v)
	}
}

func TestBusLowestDeviceBase(t *testing.T) {
	bus := NewSystemBus(NewRAM(0))
	if !bus.belowDevices(0xfffffffc, 4) {
		t.Fatal("a bus with no device is not all RAM")
	}
	if err := bus.Map(0x2000, &echoDev{}); err != nil {
		t.Fatal(err)
	}
	if err := bus.Map(0x1000, &echoDev{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		addr  uint32
		size  int
		below bool
		ram   bool
	}{
		{0x0ffc, 4, true, true},
		{0x0ffd, 4, false, true}, // straddles into the device: routed by its first byte
		{0x0fff, 1, true, true},
		{0x1000, 1, false, false},
		{0x100c, 4, false, false},
		{0x1010, 4, false, true}, // the gap between the devices
		{0x2000, 4, false, false},
		{0x2010, 4, false, true},
	} {
		if got := bus.belowDevices(c.addr, c.size); got != c.below {
			t.Errorf("belowDevices(%#x, %d) = %v", c.addr, c.size, got)
		}
		if got := bus.find(c.addr, c.size) == nil; got != c.ram {
			t.Errorf("find(%#x, %d) found no device: %v", c.addr, c.size, got)
		}
	}
}

func TestMapDeviceAtTopOfAddressSpace(t *testing.T) {
	bus := NewSystemBus(NewRAM(0))
	top := &echoDev{}
	if err := bus.Map(0xfffff000, &sizedDev{size: 0x1001}); err == nil {
		t.Fatal("a device past the top of the address space was accepted")
	}
	if err := bus.Map(0xfffff000, &sizedDev{size: 0x1000}); err != nil {
		t.Fatalf("a device ending at 2^32 was rejected: %v", err)
	}
	if err := bus.Map(0xffffe000, top); err != nil {
		t.Fatal(err)
	}
	if err := bus.Write(0xfffffffc, 4, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := bus.Read(0xfffffffc, 4); err != nil || v != 0xffc+9 {
		t.Fatalf("top device read = %#x, %v", v, err)
	}
	if err := bus.Map(0xfffffff0, &echoDev{}); err == nil {
		t.Fatal("overlap with a device ending at 2^32 accepted")
	}
}

// sizedDev is an echoDev of a chosen size.
type sizedDev struct {
	echoDev
	size uint32
}

func (d *sizedDev) Size() uint32 { return d.size }

func TestBulkBytes(t *testing.T) {
	ram := NewRAM(0x10000)
	bus := NewSystemBus(ram)
	dev := &echoDev{}
	if err := bus.Map(0x8000, dev); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*pageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	// Three pages' worth starting mid-page spans four pages.
	if err := WriteBytes(bus, 0x0800, data); err != nil {
		t.Fatal(err)
	}
	if len(ram.pages) != 4 {
		t.Fatalf("%d pages allocated, want 4", len(ram.pages))
	}
	got := make([]byte, len(data))
	if err := ReadBytes(bus, 0x0800, got); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back mismatch (err %v)", err)
	}
	// Untouched memory reads as zero and allocates nothing.
	for i := range got {
		got[i] = 0xff
	}
	if err := ReadBytes(bus, 0x4800, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, len(got))) || len(ram.pages) != 4 {
		t.Fatalf("untouched read: nonzero bytes or %d pages", len(ram.pages))
	}
	// A range that does not fit is rejected whole.
	if err := WriteBytes(bus, 0xfff0, make([]byte, 32)); err == nil {
		t.Fatal("write past the limit accepted")
	}
	if err := ram.ReadBytes(0xfff0, make([]byte, 32)); err == nil {
		t.Fatal("read past the limit accepted")
	}
	// A range that touches a device goes through the bus byte by byte.
	if err := WriteBytes(bus, 0x7ffe, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if dev.last != 4 {
		t.Fatalf("device saw %d, want the last byte 4", dev.last)
	}
	if v, _ := ram.Read(0x7ffe, 2); v != 0x0201 {
		t.Fatalf("RAM below the device = %#x", v)
	}
	four := make([]byte, 4)
	if err := ReadBytes(bus, 0x7ffe, four); err != nil || !bytes.Equal(four, []byte{1, 2, 4, 5}) {
		t.Fatalf("mixed read = % x, %v", four, err)
	}
}

// loadStoreLoop exercises every load and store width on one data page.
const loadStoreLoop = `
_start:
    la   gp, buf
    li   a0, 0x12345678
loop:
    sw   a0, 0(gp)
    lw   a1, 0(gp)
    sh   a1, 4(gp)
    lh   a2, 4(gp)
    lhu  a3, 4(gp)
    sb   a2, 8(gp)
    lb   a4, 8(gp)
    lbu  a5, 8(gp)
    addi a0, a0, 1
    j    loop
.data
buf: .space 16
`

func TestCPULoadStoreNoAllocs(t *testing.T) {
	c, _ := buildCPU(t, loadStoreLoop)
	c.Run(1000) // touch the pages and fill the decode cache
	allocs := testing.AllocsPerRun(100, func() {
		if stop, _ := c.Run(1000); stop != StopBudget {
			t.Fatalf("stop = %v", stop)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per run of aligned loads and stores", allocs)
	}
}

func BenchmarkRAMWord(b *testing.B) {
	r := NewRAM(1 << 20)
	_ = r.Write(0x1000, 4, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v, _ := r.Read(0x1000, 4)
		_ = r.Write(0x1000, 4, v+1)
	}
}

func BenchmarkCPULoadStore(b *testing.B) {
	c, _ := buildCPU(b, loadStoreLoop)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(1000)
	}
}

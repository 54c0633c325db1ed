// Package iss implements a cycle-based instruction-set simulator for the
// FV32 architecture (internal/isa). It models the processor, a sparse
// RAM, and a memory-mapped I/O bus to which device models
// (internal/dev) attach. The CPU supports hardware breakpoints, write
// watchpoints, external interrupt lines and a configurable CPI table —
// everything the co-simulation schemes of the paper need from an ISS.
package iss

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// BusError describes a failed memory access.
type BusError struct {
	Addr  uint32
	Size  int
	Write bool
	Why   string
}

func (e *BusError) Error() string {
	dir := "read"
	if e.Write {
		dir = "write"
	}
	return fmt.Sprintf("iss: bus error: %s of %d bytes at %#08x: %s", dir, e.Size, e.Addr, e.Why)
}

// Bus is the CPU's view of memory: byte-addressed loads and stores of
// 1, 2 or 4 bytes. Values are little-endian.
type Bus interface {
	Read(addr uint32, size int) (uint32, error)
	Write(addr uint32, size int, v uint32) error
}

// pageSize is the RAM allocation granule.
const pageSize = 4096

// RAM is sparse little-endian memory: pages are allocated on first
// touch, so a 4 GiB address space costs only what is used.
type RAM struct {
	pages map[uint32][]byte
	limit uint32 // exclusive upper bound; 0 means no limit
}

// NewRAM creates a RAM covering [0, size). A size of 0 means the full
// 32-bit space.
func NewRAM(size uint32) *RAM {
	return &RAM{pages: make(map[uint32][]byte), limit: size}
}

// Size returns the configured size (0 = unbounded).
func (r *RAM) Size() uint32 { return r.limit }

func (r *RAM) page(addr uint32, alloc bool) []byte {
	key := addr / pageSize
	p := r.pages[key]
	if p == nil && alloc {
		p = make([]byte, pageSize)
		r.pages[key] = p
	}
	return p
}

func (r *RAM) check(addr uint32, size int) error {
	if size != 1 && size != 2 && size != 4 {
		return &BusError{Addr: addr, Size: size, Why: "bad access size"}
	}
	if r.limit != 0 && (addr >= r.limit || addr+uint32(size) > r.limit) {
		return &BusError{Addr: addr, Size: size, Why: "beyond RAM"}
	}
	return nil
}

// Read implements Bus. An access within one page costs one page
// lookup; accesses may straddle page boundaries.
func (r *RAM) Read(addr uint32, size int) (uint32, error) {
	if err := r.check(addr, size); err != nil {
		return 0, err
	}
	off := addr % pageSize
	if off+uint32(size) > pageSize {
		var v uint32
		for i := 0; i < size; i++ {
			a := addr + uint32(i)
			if p := r.page(a, false); p != nil {
				v |= uint32(p[a%pageSize]) << (8 * i)
			}
		}
		return v, nil
	}
	p := r.pages[addr/pageSize]
	if p == nil {
		return 0, nil
	}
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(p[off:]), nil
	case 2:
		return uint32(binary.LittleEndian.Uint16(p[off:])), nil
	}
	return uint32(p[off]), nil
}

// Write implements Bus.
func (r *RAM) Write(addr uint32, size int, v uint32) error {
	if err := r.check(addr, size); err != nil {
		return err
	}
	off := addr % pageSize
	if off+uint32(size) > pageSize {
		for i := 0; i < size; i++ {
			a := addr + uint32(i)
			r.page(a, true)[a%pageSize] = byte(v >> (8 * i))
		}
		return nil
	}
	p := r.page(addr, true)
	switch size {
	case 4:
		binary.LittleEndian.PutUint32(p[off:], v)
	case 2:
		binary.LittleEndian.PutUint16(p[off:], uint16(v))
	default:
		p[off] = byte(v)
	}
	return nil
}

// checkSpan rejects a byte range that does not lie wholly inside the
// RAM; on an unbounded RAM a range may wrap past the top of the
// address space.
func (r *RAM) checkSpan(addr uint32, n int, write bool) error {
	if r.limit != 0 && n > 0 && uint64(addr)+uint64(n) > uint64(r.limit) {
		return &BusError{Addr: addr, Size: n, Write: write, Why: "beyond RAM"}
	}
	return nil
}

// LoadBytes copies raw bytes into RAM at addr, a page at a time
// (program loading, debugger writes). A range that does not fit is
// rejected whole.
func (r *RAM) LoadBytes(addr uint32, data []byte) error {
	if err := r.checkSpan(addr, len(data), true); err != nil {
		return err
	}
	for len(data) > 0 {
		off := addr % pageSize
		n := copy(r.page(addr, true)[off:], data)
		data = data[n:]
		addr += uint32(n)
	}
	return nil
}

// ReadBytes fills dst from RAM at addr, a page at a time; untouched
// pages read as zero and stay unallocated.
func (r *RAM) ReadBytes(addr uint32, dst []byte) error {
	if err := r.checkSpan(addr, len(dst), false); err != nil {
		return err
	}
	for len(dst) > 0 {
		off := addr % pageSize
		n := min(len(dst), int(pageSize-off))
		if p := r.page(addr, false); p != nil {
			copy(dst[:n], p[off:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		addr += uint32(n)
	}
	return nil
}

// Device is a memory-mapped peripheral model. Offsets are relative to
// the device's mapping base.
type Device interface {
	Name() string
	Size() uint32
	Read(off uint32, size int) (uint32, error)
	Write(off uint32, size int, v uint32) error
}

// mapping binds a device to [base, end). end is 64-bit so a device
// may end exactly at the top of the 32-bit space.
type mapping struct {
	base uint32
	end  uint64
	dev  Device
}

// SystemBus routes accesses to RAM or to mapped devices. Device regions
// take precedence over RAM.
type SystemBus struct {
	ram  *RAM
	maps []mapping // sorted by base
	lo   uint64    // lowest device base; 1<<32 with no device mapped
}

// NewSystemBus creates a bus backed by the given RAM.
func NewSystemBus(ram *RAM) *SystemBus {
	return &SystemBus{ram: ram, lo: 1 << 32}
}

// RAM returns the backing RAM (for program loading and debugger pokes).
func (b *SystemBus) RAM() *RAM { return b.ram }

// Map attaches a device at the given base address. Overlapping regions
// are rejected.
func (b *SystemBus) Map(base uint32, dev Device) error {
	end := uint64(base) + uint64(dev.Size())
	if end > 1<<32 {
		return fmt.Errorf("iss: device %s wraps the address space", dev.Name())
	}
	if m := b.overlap(uint64(base), end); m != nil {
		return fmt.Errorf("iss: device %s overlaps %s", dev.Name(), m.dev.Name())
	}
	b.maps = append(b.maps, mapping{base, end, dev})
	sort.Slice(b.maps, func(i, j int) bool { return b.maps[i].base < b.maps[j].base })
	b.lo = uint64(b.maps[0].base)
	return nil
}

// overlap returns a device that intersects [lo, hi), if any.
func (b *SystemBus) overlap(lo, hi uint64) *mapping {
	for i := range b.maps {
		if m := &b.maps[i]; lo < m.end && uint64(m.base) < hi {
			return m
		}
	}
	return nil
}

// belowDevices reports whether [addr, addr+size) lies wholly below the
// lowest device base, so the access is plain RAM with no lookup.
func (b *SystemBus) belowDevices(addr uint32, size int) bool {
	return uint64(addr)+uint64(size) <= b.lo
}

// find returns the device covering addr, if any. The access size only
// lets an access that lies wholly below every device skip the search.
func (b *SystemBus) find(addr uint32, size int) *mapping {
	if b.belowDevices(addr, size) {
		return nil
	}
	i := sort.Search(len(b.maps), func(i int) bool { return b.maps[i].end > uint64(addr) })
	if i < len(b.maps) && addr >= b.maps[i].base {
		return &b.maps[i]
	}
	return nil
}

// Read implements Bus.
func (b *SystemBus) Read(addr uint32, size int) (uint32, error) {
	if m := b.find(addr, size); m != nil {
		return m.dev.Read(addr-m.base, size)
	}
	return b.ram.Read(addr, size)
}

// Write implements Bus.
func (b *SystemBus) Write(addr uint32, size int, v uint32) error {
	if m := b.find(addr, size); m != nil {
		return m.dev.Write(addr-m.base, size, v)
	}
	return b.ram.Write(addr, size, v)
}

// bulkRAM returns the RAM behind bus that a bulk copy of [addr,
// addr+n) may use directly, or nil when the range touches a device,
// wraps, or the bus is not one of this package's.
func bulkRAM(bus Bus, addr uint32, n int) *RAM {
	switch b := bus.(type) {
	case *RAM:
		return b
	case *SystemBus:
		end := uint64(addr) + uint64(n)
		if end <= 1<<32 && b.overlap(uint64(addr), end) == nil {
			return b.ram
		}
	}
	return nil
}

// ReadBytes fills dst from bus at addr: page by page when the range is
// plain RAM, byte by byte through the bus when it touches a device.
func ReadBytes(bus Bus, addr uint32, dst []byte) error {
	if r := bulkRAM(bus, addr, len(dst)); r != nil {
		return r.ReadBytes(addr, dst)
	}
	for i := range dst {
		v, err := bus.Read(addr+uint32(i), 1)
		if err != nil {
			return err
		}
		dst[i] = byte(v)
	}
	return nil
}

// WriteBytes stores data on bus at addr: page by page when the range
// is plain RAM, byte by byte through the bus when it touches a device.
func WriteBytes(bus Bus, addr uint32, data []byte) error {
	if r := bulkRAM(bus, addr, len(data)); r != nil {
		return r.LoadBytes(addr, data)
	}
	for i, c := range data {
		if err := bus.Write(addr+uint32(i), 1, uint32(c)); err != nil {
			return err
		}
	}
	return nil
}

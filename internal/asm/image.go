package asm

import (
	"fmt"
	"sort"
)

// Segment is a contiguous block of assembled bytes.
type Segment struct {
	Addr uint32
	Data []byte
}

// Line maps a code address to its source position.
type Line struct {
	Addr uint32
	File string
	Line int
}

// Image is the output of the assembler: loadable segments, a symbol
// table, and a line table usable for source-level breakpoints.
//
// Assemble returns a fresh image its caller owns. An image shared
// between runs (the router's embedded guests) is read-only: its users
// copy it into guest memory with LoadInto and look up symbols and
// lines, and nothing writes its fields after Assemble returns.
type Image struct {
	Entry    uint32
	Segments []Segment
	Symbols  map[string]uint32
	Lines    []Line // sorted by address
}

// Symbol looks up a symbol's value.
func (im *Image) Symbol(name string) (uint32, bool) {
	v, ok := im.Symbols[name]
	return v, ok
}

// MustSymbol looks up a symbol and panics if missing (for tests and
// trusted embedded sources).
func (im *Image) MustSymbol(name string) uint32 {
	v, ok := im.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// AddrOfLine returns the address of the first instruction emitted for
// the given source line. This is what the co-simulation kernel uses to
// translate "breakpoint at file:line" into a code address.
func (im *Image) AddrOfLine(file string, line int) (uint32, bool) {
	for _, l := range im.Lines {
		if l.File == file && l.Line == line {
			return l.Addr, true
		}
	}
	return 0, false
}

// LineOfAddr returns the source position of the statement covering addr
// (the statement with the greatest start address <= addr).
func (im *Image) LineOfAddr(addr uint32) (file string, line int, ok bool) {
	i := sort.Search(len(im.Lines), func(i int) bool { return im.Lines[i].Addr > addr })
	if i == 0 {
		return "", 0, false
	}
	l := im.Lines[i-1]
	return l.File, l.Line, true
}

// NextLineAddr returns the address of the first statement strictly after
// the given source line in the same file — "the line that immediately
// follows the target statement", as the GDB-Kernel programming model
// requires for iss_in breakpoints (§3.2).
func (im *Image) NextLineAddr(file string, line int) (uint32, bool) {
	best := uint32(0)
	bestLine := int(^uint(0) >> 1)
	found := false
	for _, l := range im.Lines {
		if l.File == file && l.Line > line && l.Line < bestLine {
			best, bestLine, found = l.Addr, l.Line, true
		}
	}
	return best, found
}

// memWriter is the destination interface for LoadInto (satisfied by
// iss.RAM).
type memWriter interface {
	LoadBytes(addr uint32, data []byte) error
}

// LoadInto copies all segments into the target memory.
func (im *Image) LoadInto(mem memWriter) error {
	for _, s := range im.Segments {
		if err := mem.LoadBytes(s.Addr, s.Data); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes returns the number of assembled bytes across segments.
func (im *Image) TotalBytes() int {
	n := 0
	for _, s := range im.Segments {
		n += len(s.Data)
	}
	return n
}

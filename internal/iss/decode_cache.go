package iss

import "cosim/internal/isa"

// Decode-cache geometry: guest code is cached in pages of 4 KiB (1024
// word-sized entries), allocated on first fetch, so only pages that
// actually hold executed code cost memory.
const (
	dcPageShift = 12
	dcPageWords = 1 << (dcPageShift - 2)

	// maxDecodeCover bounds the address range the cache covers when the
	// backing RAM is unbounded or larger: fetches above the bound take
	// the miss path every time.
	maxDecodeCover = 16 << 20
)

// dcEntry flag bits. dcDecoded and dcEnds are set when the entry is
// filled, dcBP while a hardware breakpoint is armed at the entry's PC.
const (
	dcDecoded uint8 = 1 << iota // inst holds a valid decoded instruction
	dcBP                        // a hardware breakpoint is armed at this PC
	dcEnds                      // the batch ends after this instruction
)

// dcEntry is one predecoded instruction slot.
type dcEntry struct {
	inst  isa.Inst
	flags uint8
}

// dcPage is one lazily allocated page of entries.
type dcPage [dcPageWords]dcEntry

// noPage is a page with no entry filled.
var noPage dcPage

// decodeCache memoizes isa.Decode results for the RAM code region so
// the hot loop replaces a bus.Read + isa.Decode per instruction with
// one bounds check and an array load. Breakpoint presence is folded
// into the entry flags, eliminating the per-step map lookup. See
// DESIGN.md §5.5 for the invalidation protocol. The zero cache covers
// nothing: every fetch takes the miss path.
type decodeCache struct {
	limit uint32 // exclusive PC bound covered by the cache
	pages []*dcPage
}

// newDecodeCache covers a RAM of limit bytes (0 = unbounded).
func newDecodeCache(limit uint32) decodeCache {
	if limit == 0 || limit > maxDecodeCover {
		limit = maxDecodeCover
	}
	n := (uint64(limit) + (1 << dcPageShift) - 1) >> dcPageShift
	return decodeCache{limit: limit, pages: make([]*dcPage, n)}
}

// covers reports whether pc has a slot in the cache.
func (d *decodeCache) covers(pc uint32) bool { return pc < d.limit && pc%isa.Word == 0 }

// pageOf returns the page holding pc, or the empty noPage if pc is not
// covered or its page was never touched.
func (d *decodeCache) pageOf(pc uint32) *dcPage {
	if pc < d.limit {
		if p := d.pages[pc>>dcPageShift]; p != nil {
			return p
		}
	}
	return &noPage
}

// entry returns the slot for pc, allocating its page on first touch.
// The caller guarantees covers(pc).
func (d *decodeCache) entry(pc uint32) *dcEntry {
	p := d.pages[pc>>dcPageShift]
	if p == nil {
		p = new(dcPage)
		d.pages[pc>>dcPageShift] = p
	}
	return &p[(pc>>2)&(dcPageWords-1)]
}

// peek returns the slot for pc without allocating; nil if pc is not
// covered or its page has never been touched.
func (d *decodeCache) peek(pc uint32) *dcEntry {
	if !d.covers(pc) {
		return nil
	}
	p := d.pages[pc>>dcPageShift]
	if p == nil {
		return nil
	}
	return &p[(pc>>2)&(dcPageWords-1)]
}

// invalidate drops decoded entries overlapping [addr, addr+n) and
// returns how many were live. Breakpoint flags survive: they track
// debugger state, not memory contents.
func (d *decodeCache) invalidate(addr, n uint32) uint64 {
	if n == 0 || addr >= d.limit {
		return 0
	}
	end := addr + n
	if end > d.limit || end < addr {
		end = d.limit
	}
	var dropped uint64
	for w := addr &^ 3; w < end; w += isa.Word {
		if e := d.peek(w); e != nil && e.flags&dcDecoded != 0 {
			e.flags &^= dcDecoded
			dropped++
		}
	}
	return dropped
}

// flush drops every decoded entry (breakpoint flags survive).
func (d *decodeCache) flush() {
	for _, p := range d.pages {
		if p != nil {
			for j := range p {
				p[j].flags &^= dcDecoded
			}
		}
	}
}

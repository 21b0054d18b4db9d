// Package cache provides the building blocks shared by the L1 and L2 models:
// a set-associative tag array with LRU replacement, allocate-on-miss line
// reservation and write policies, and an MSHR table with request merging.
//
// Line reservation is central to the paper's structural-hazard analysis
// (§IV-A2): Fermi reserves the victim line when the miss is *sent*, so a set
// whose lines are all reserved by outstanding misses blocks the cache
// pipeline ("cache" stalls in Figs. 8 and 9).
package cache

import (
	"fmt"
	"math/bits"
)

// LineState is the state of one cache line.
type LineState uint8

const (
	// Invalid lines hold no data.
	Invalid LineState = iota
	// Valid lines hold data and may be replaced.
	Valid
	// Reserved lines are allocated to an outstanding miss (allocate-on-
	// miss) and cannot be replaced until the fill returns.
	Reserved
)

// String implements fmt.Stringer.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "invalid"
	case Valid:
		return "valid"
	case Reserved:
		return "reserved"
	default:
		return fmt.Sprintf("LineState(%d)", uint8(s))
	}
}

type line struct {
	addr    uint64 // line-aligned address (tag)
	state   LineState
	dirty   bool
	lastUse int64
}

// Victim describes the line evicted by ReserveVictim.
type Victim struct {
	Addr  uint64
	Dirty bool // dirty victims must be written back (L2 write-back policy)
	Valid bool // false when an invalid way was claimed, so nothing was evicted
}

// TagArray is a set-associative array of cache-line tags with true-LRU
// replacement. It holds no data — the simulator is timing-only.
//
// IndexStride spreads addresses across banked caches: the set index of a
// line is (addr/lineBytes/indexStride) mod sets, so a bank receiving every
// numBanks-th line still uses all its sets.
//
// Lines live in one flat slab (ways consecutive per set) and the index
// arithmetic strength-reduces its divisions to shifts and masks where the
// geometry allows — the tag lookup sits on the per-access hot path of both
// cache levels.
type TagArray struct {
	lines     []line // numSets * ways, set-major
	numSets   int
	ways      int
	lineBytes uint64

	// idxDiv is lineBytes*indexStride: floor(floor(a/b)/c) == floor(a/(b*c))
	// for positive integers, so one division replaces the original two.
	// idxShift/setMask are the shift-and-mask fast path, valid when
	// idxShift >= 0 (idxDiv a power of two) / setMask != 0 (numSets a
	// power of two).
	idxDiv   uint64
	idxShift int
	setMask  uint64
	lineMask uint64 // lineBytes-1 when a power of two, else 0

	clock int64 // monotonic access counter driving LRU
}

// NewTagArray builds a tag array with the given geometry. indexStride must
// be ≥ 1 (use 1 for an unbanked cache).
func NewTagArray(sets, ways, lineBytes, indexStride int) *TagArray {
	if sets <= 0 || ways <= 0 || lineBytes <= 0 || indexStride <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry sets=%d ways=%d line=%d stride=%d",
			sets, ways, lineBytes, indexStride))
	}
	t := &TagArray{
		lines:     make([]line, sets*ways),
		numSets:   sets,
		ways:      ways,
		lineBytes: uint64(lineBytes),
		idxDiv:    uint64(lineBytes) * uint64(indexStride),
		idxShift:  -1,
	}
	if isPow2(t.idxDiv) {
		t.idxShift = bits.TrailingZeros64(t.idxDiv)
	}
	if isPow2(uint64(sets)) {
		t.setMask = uint64(sets) - 1
	}
	if isPow2(t.lineBytes) {
		t.lineMask = t.lineBytes - 1
	}
	return t
}

func isPow2(v uint64) bool { return v&(v-1) == 0 }

// Sets returns the number of sets.
func (t *TagArray) Sets() int { return t.numSets }

// Ways returns the associativity.
func (t *TagArray) Ways() int { return t.ways }

// LineAddr returns addr rounded down to its cache-line base.
func (t *TagArray) LineAddr(addr uint64) uint64 {
	if t.lineMask != 0 {
		return addr &^ t.lineMask
	}
	return addr - addr%t.lineBytes
}

func (t *TagArray) setIndex(addr uint64) int {
	var idx uint64
	if t.idxShift >= 0 {
		idx = addr >> uint(t.idxShift)
	} else {
		idx = addr / t.idxDiv
	}
	if t.setMask != 0 {
		return int(idx & t.setMask)
	}
	return int(idx % uint64(t.numSets))
}

// set returns the ways of the set holding addr (addr need not be aligned).
func (t *TagArray) set(addr uint64) []line {
	i := t.setIndex(addr) * t.ways
	return t.lines[i : i+t.ways]
}

func (t *TagArray) find(addr uint64) *line {
	addr = t.LineAddr(addr)
	set := t.set(addr)
	for i := range set {
		if set[i].state != Invalid && set[i].addr == addr {
			return &set[i]
		}
	}
	return nil
}

// Probe returns the state of the line holding addr without touching LRU
// state. Invalid means the line is absent.
func (t *TagArray) Probe(addr uint64) LineState {
	if l := t.find(addr); l != nil {
		return l.state
	}
	return Invalid
}

// Access looks up addr and, on a valid hit, updates its LRU position and
// returns true. Reserved lines return false: the data has not arrived, so
// the access must merge with the outstanding miss instead.
func (t *TagArray) Access(addr uint64) bool {
	l := t.find(addr)
	if l == nil || l.state != Valid {
		return false
	}
	t.clock++
	l.lastUse = t.clock
	return true
}

// MarkDirty sets the dirty bit of a valid line (write-back write hit).
// It reports whether the line was present and valid.
func (t *TagArray) MarkDirty(addr uint64) bool {
	l := t.find(addr)
	if l == nil || l.state != Valid {
		return false
	}
	t.clock++
	l.lastUse = t.clock
	l.dirty = true
	return true
}

// Invalidate drops the line holding addr regardless of state (the L1
// write-evict policy invalidates on store hits). It reports whether a line
// was dropped.
func (t *TagArray) Invalidate(addr uint64) bool {
	l := t.find(addr)
	if l == nil {
		return false
	}
	l.state = Invalid
	l.dirty = false
	return true
}

// HasReplaceable reports whether the set for addr has an invalid or valid
// (non-reserved) way — i.e. whether ReserveVictim can succeed. A false
// return is the paper's "lack of replaceable cache lines" structural hazard.
func (t *TagArray) HasReplaceable(addr uint64) bool {
	set := t.set(t.LineAddr(addr))
	for i := range set {
		if set[i].state != Reserved {
			return true
		}
	}
	return false
}

// ReserveVictim allocates a line for an outstanding miss on addr
// (allocate-on-miss): it claims an invalid way if one exists, otherwise
// evicts the LRU valid way. The reserved line cannot be replaced until
// Fill. It fails (ok=false) when every way in the set is reserved.
func (t *TagArray) ReserveVictim(addr uint64) (victim Victim, ok bool) {
	addr = t.LineAddr(addr)
	set := t.set(addr)
	chosen := -1
	for i := range set {
		switch set[i].state {
		case Invalid:
			if chosen == -1 || set[chosen].state == Valid {
				chosen = i
			}
		case Valid:
			if chosen == -1 || (set[chosen].state == Valid && set[i].lastUse < set[chosen].lastUse) {
				chosen = i
			}
		}
	}
	if chosen == -1 {
		return Victim{}, false
	}
	if set[chosen].state == Valid {
		victim = Victim{Addr: set[chosen].addr, Dirty: set[chosen].dirty, Valid: true}
	}
	t.clock++
	set[chosen] = line{addr: addr, state: Reserved, lastUse: t.clock}
	return victim, true
}

// Fill completes the outstanding miss on addr, turning its reserved line
// valid. Filling an unreserved address installs the line directly (evicting
// per ReserveVictim) — used by fills that bypassed reservation, such as
// full-line stores with write-allocate.
func (t *TagArray) Fill(addr uint64) Victim {
	addr = t.LineAddr(addr)
	if l := t.find(addr); l != nil {
		l.state = Valid
		t.clock++
		l.lastUse = t.clock
		return Victim{}
	}
	v, ok := t.ReserveVictim(addr)
	if !ok {
		// No way available; the caller should have reserved first.
		// Install nothing rather than corrupt a reserved line.
		return Victim{}
	}
	t.Fill(addr)
	return v
}

package cache

// AllocResult reports the outcome of an MSHR allocation attempt.
type AllocResult uint8

const (
	// AllocNew created a fresh entry: the caller must send a miss request
	// to the next level.
	AllocNew AllocResult = iota
	// AllocMerged attached the requester to an existing entry (a
	// secondary miss): no new request goes to the next level.
	AllocMerged
	// AllocFullEntries failed: the MSHR has no free entries. This is the
	// paper's "mshr" structural hazard.
	AllocFullEntries
	// AllocFullMerge failed: the target entry exists but its merge list
	// is full.
	AllocFullMerge
)

// String implements fmt.Stringer.
func (r AllocResult) String() string {
	switch r {
	case AllocNew:
		return "new"
	case AllocMerged:
		return "merged"
	case AllocFullEntries:
		return "full-entries"
	case AllocFullMerge:
		return "full-merge"
	default:
		return "unknown"
	}
}

// mshrSlot is one bucket of the MSHR's open-addressed table.
type mshrSlot[T any] struct {
	addr    uint64
	waiters []T
	live    bool
}

// MSHR is a miss-status holding register file: a fully associative table
// from outstanding miss line address to the requesters waiting on its fill.
// maxEntries ≤ 0 makes it unbounded (ideal modes); maxMerge ≤ 0 allows
// unlimited merging.
//
// The table is open-addressed with linear probing and backward-shift
// deletion: every lookup is a short scan over contiguous slots, replacing
// the runtime-map hashing that dominated the allocate/release hot path.
// Released waiter lists keep their backing arrays on an internal spare
// list, so steady-state allocate/release cycles are allocation-free.
type MSHR[T any] struct {
	slots      []mshrSlot[T] // power-of-two open-addressed table
	mask       uint64
	shift      uint // 64 - log2(len(slots)), for the multiplicative hash
	count      int
	spare      [][]T // backing arrays of released entries, ready for reuse
	maxEntries int
	maxMerge   int
}

// NewMSHR builds an MSHR with the given entry count and per-entry merge
// capacity (the primary miss counts toward the merge capacity).
func NewMSHR[T any](maxEntries, maxMerge int) *MSHR[T] {
	m := &MSHR[T]{maxEntries: maxEntries, maxMerge: maxMerge}
	cap := 16
	for maxEntries > 0 && cap < 2*maxEntries {
		cap <<= 1
	}
	m.grow(cap)
	return m
}

func (m *MSHR[T]) grow(newCap int) {
	old := m.slots
	m.slots = make([]mshrSlot[T], newCap)
	m.mask = uint64(newCap - 1)
	m.shift = 64 - uint(log2(newCap))
	for i := range old {
		if old[i].live {
			j := m.probe(old[i].addr)
			m.slots[j] = old[i]
		}
	}
}

func log2(v int) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// home is the preferred slot for addr (Fibonacci multiplicative hash).
func (m *MSHR[T]) home(addr uint64) uint64 {
	return (addr * 0x9E3779B97F4A7C15) >> m.shift
}

// probe returns the first free slot for addr. Only valid when addr is not
// already present.
func (m *MSHR[T]) probe(addr uint64) uint64 {
	i := m.home(addr)
	for m.slots[i].live {
		i = (i + 1) & m.mask
	}
	return i
}

// lookup returns the slot holding addr, or ok=false if absent.
func (m *MSHR[T]) lookup(addr uint64) (uint64, bool) {
	i := m.home(addr)
	for m.slots[i].live {
		if m.slots[i].addr == addr {
			return i, true
		}
		i = (i + 1) & m.mask
	}
	return 0, false
}

// remove vacates slot i, back-shifting any displaced followers so the
// probe chains stay unbroken (no tombstones).
func (m *MSHR[T]) remove(i uint64) {
	m.count--
	j := i
	for {
		j = (j + 1) & m.mask
		if !m.slots[j].live {
			break
		}
		// An element whose probe distance reaches back to the vacancy can
		// slide into it without becoming unreachable.
		if (j-m.home(m.slots[j].addr))&m.mask >= (j-i)&m.mask {
			m.slots[i] = m.slots[j]
			i = j
		}
	}
	m.slots[i] = mshrSlot[T]{}
}

// Len returns the number of live entries.
func (m *MSHR[T]) Len() int { return m.count }

// Cap returns the configured entry limit (0 when unbounded).
func (m *MSHR[T]) Cap() int { return m.maxEntries }

// Full reports whether a new (non-merging) allocation would fail.
func (m *MSHR[T]) Full() bool {
	return m.maxEntries > 0 && m.count >= m.maxEntries
}

// Pending reports whether addr has an outstanding miss.
func (m *MSHR[T]) Pending(addr uint64) bool {
	_, ok := m.lookup(addr)
	return ok
}

// CanAccept reports whether Allocate(addr, …) would succeed, without
// performing it. Stall-attribution code uses it to classify a blocked
// request before committing resources.
func (m *MSHR[T]) CanAccept(addr uint64) bool {
	if i, ok := m.lookup(addr); ok {
		return m.maxMerge <= 0 || len(m.slots[i].waiters) < m.maxMerge
	}
	return !m.Full()
}

// Allocate records that item waits on the fill of addr. On AllocNew the
// caller must forward the miss to the next level; on AllocMerged it must
// not. The two failure results leave the MSHR unchanged.
func (m *MSHR[T]) Allocate(addr uint64, item T) AllocResult {
	if i, ok := m.lookup(addr); ok {
		if m.maxMerge > 0 && len(m.slots[i].waiters) >= m.maxMerge {
			return AllocFullMerge
		}
		m.slots[i].waiters = append(m.slots[i].waiters, item)
		return AllocMerged
	}
	if m.Full() {
		return AllocFullEntries
	}
	if 4*(m.count+1) > 3*len(m.slots) {
		m.grow(2 * len(m.slots))
	}
	var ws []T
	if n := len(m.spare); n > 0 {
		ws = m.spare[n-1][:0]
		m.spare = m.spare[:n-1]
	}
	i := m.probe(addr)
	m.slots[i] = mshrSlot[T]{addr: addr, waiters: append(ws, item), live: true}
	m.count++
	return AllocNew
}

// Release completes the miss on addr, removing the entry and returning
// every waiter (primary first, in allocation order).
//
// The returned slice aliases a backing array the MSHR will reuse: it is
// valid only until the next Allocate. Callers consume it immediately (the
// fill path iterates the waiters and moves on), so no copy is made.
func (m *MSHR[T]) Release(addr uint64) []T {
	i, ok := m.lookup(addr)
	if !ok {
		return nil
	}
	waiters := m.slots[i].waiters
	m.slots[i].waiters = nil
	m.remove(i)
	m.spare = append(m.spare, waiters)
	return waiters
}

package mem

// FetchPool is a freelist of Fetch objects. One simulated GPU owns one
// pool, so steady-state simulation recycles a bounded working set of
// fetches instead of allocating one per memory access (and leaving the
// garbage collector to reclaim hundreds of thousands per run).
//
// The pool is deliberately not thread-safe: a GPU's cycle loop is single-
// threaded, and giving every GPU its own pool keeps concurrent experiment
// cells (exp.Scheduler workers) from contending on a shared freelist.
//
// A nil *FetchPool is valid and simply allocates: components take the pool
// as optional wiring so unit tests and examples can ignore it.
type FetchPool struct {
	free   []*Fetch
	allocs int // fetches Get allocated because the free list was empty
}

// Get returns a zeroed Fetch, recycling a released one when available.
func (p *FetchPool) Get() *Fetch {
	if p == nil {
		return &Fetch{}
	}
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		*f = Fetch{}
		return f
	}
	p.allocs++
	return &Fetch{}
}

// Put releases a dead fetch back to the pool. The caller must hold the
// only live reference: a fetch may be released exactly once, at the point
// it leaves the memory system (reply consumed, store absorbed, fill
// applied).
func (p *FetchPool) Put(f *Fetch) {
	if p == nil || f == nil {
		return
	}
	p.free = append(p.free, f)
}

// Allocated returns how many fetches the pool has allocated: Get's calls
// that found the free list empty. Once every fetch has left the memory
// system it equals FreeLen — fewer means a leak, more a double Put.
func (p *FetchPool) Allocated() int { return p.allocs }

// FreeLen returns how many released fetches the free list holds.
func (p *FetchPool) FreeLen() int { return len(p.free) }

// Package l2 models the shared, banked L2 cache and the memory partitions
// that tie L2 banks to their DRAM channel (Fig. 2 of the paper).
//
// Each bank owns the five structures whose contention the paper measures in
// Fig. 8: the access queue fed by the request crossbar, the tag array with
// allocate-on-miss reservations, the MSHR file, the miss queue draining into
// the DRAM scheduler, the data port that serializes line transfers, and the
// response queue feeding the reply crossbar. Every cycle the head of the
// access queue cannot make progress is attributed to exactly one cause:
// bp-ICNT (response queue full), port, mshr, cache (no replaceable line) or
// bp-DRAM (miss queue backed up by the DRAM scheduler queue).
package l2

import (
	"math"

	"gpumembw/internal/cache"
	"gpumembw/internal/config"
	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
	"gpumembw/internal/stats"
)

// StallCause labels why the L2 bank pipeline is blocked this cycle
// (the categories of Fig. 8).
type StallCause int

const (
	// StallNone means the bank made progress.
	StallNone StallCause = iota
	// StallBpICNT: the response queue is full because the reply crossbar
	// cannot drain it fast enough.
	StallBpICNT
	// StallPort: the data port is busy with a line read or fill.
	StallPort
	// StallCache: no replaceable line — every way in the set is reserved
	// by outstanding misses.
	StallCache
	// StallMSHR: no free MSHR entry (or merge capacity).
	StallMSHR
	// StallBpDRAM: the miss queue is full because the DRAM scheduler
	// queue is full.
	StallBpDRAM

	numStallCauses
)

// StallLabels are the Fig. 8 legend names, indexed by StallCause-1.
var StallLabels = []string{"bp-ICNT", "port", "cache", "mshr", "bp-DRAM"}

// timedFetch pairs a fetch with the L2 cycle it becomes visible at the exit
// of the bank pipeline (modelling tag/pipeline latency).
type timedFetch struct {
	fetch *mem.Fetch
	ready int64
}

// timedQueue is a FIFO of fetches leaving the bank pipeline. The head's
// ready cycle is kept beside the ring, so the questions asked every tick —
// is the head out of the pipeline yet, when will it be — read one field
// of the bank instead of the ring's memory.
type timedQueue struct {
	*mem.Queue[timedFetch]
	headReady int64 // the head's ready cycle; sched.Never when empty
}

func newTimedQueue(capacity int) timedQueue {
	return timedQueue{Queue: mem.NewQueue[timedFetch](capacity), headReady: sched.Never}
}

func (q *timedQueue) push(f *mem.Fetch, ready int64) bool {
	if !q.Push(timedFetch{fetch: f, ready: ready}) {
		return false
	}
	if q.Len() == 1 {
		q.headReady = ready
	}
	return true
}

// peek returns the head if it has left the pipeline by cycle now.
func (q *timedQueue) peek(now int64) (*mem.Fetch, bool) {
	if q.headReady > now {
		return nil, false
	}
	tf, _ := q.Peek()
	return tf.fetch, true
}

// pop removes the head; the caller has peeked it.
func (q *timedQueue) pop() {
	q.Pop()
	q.headReady = sched.Never
	if tf, ok := q.Peek(); ok {
		q.headReady = tf.ready
	}
}

// BankStats aggregates per-bank statistics.
type BankStats struct {
	Accesses  int64
	Hits      int64
	Misses    int64 // true misses sent toward DRAM
	Merged    int64 // secondary misses merged into an MSHR entry
	Writes    int64
	Fills     int64
	WriteBack int64

	StallCycles     [numStallCauses]int64 // indexed by StallCause
	AccessOccupancy stats.OccupancyHist   // the Fig. 4 histogram
}

// Bank is one L2 cache bank.
type Bank struct {
	ID  int // global bank index
	cfg *config.Config

	tags *cache.TagArray
	mshr *cache.MSHR[*mem.Fetch]

	accessQ *mem.Queue[*mem.Fetch] // from the request crossbar
	missQ   timedQueue             // toward the DRAM scheduler
	respQ   timedQueue             // toward the reply crossbar

	// fillPending holds the replies of the fill in flight: a fill with
	// many merged requesters drains into the response queue one entry
	// per cycle as slots free up, rather than demanding them all at once
	// (which could never be satisfied on small response queues).
	fillPending []*mem.Fetch
	fillReady   int64

	portBusyUntil int64
	now           int64

	// parked memoizes a blocked access-queue head: its stall cause cannot
	// change until the port frees (parkedUntil, for StallPort), a fill
	// arrives, or a response/miss slot drains — each of which clears the
	// memo. The head itself is frozen while parked (pops happen only on a
	// successful process), so replaying the attribution is exact.
	parked      bool
	parkedCause StallCause
	parkedUntil int64

	portCycles int64 // port occupancy per line transfer
	tagLat     int64

	pool *mem.FetchPool // optional freelist for fetch creation/retirement

	Stats BankStats
}

// NewBank builds L2 bank id for the given configuration.
func NewBank(id int, cfg *config.Config) *Bank {
	return &Bank{
		ID:         id,
		cfg:        cfg,
		tags:       cache.NewTagArray(cfg.SetsPerL2Bank(), cfg.L2.Ways, cfg.L2.LineBytes, cfg.L2.NumBanks),
		mshr:       cache.NewMSHR[*mem.Fetch](cfg.L2.MSHREntries, cfg.L2.MSHRMaxMerge),
		accessQ:    mem.NewQueue[*mem.Fetch](cfg.L2.AccessQueueEntries),
		missQ:      newTimedQueue(cfg.L2.MissQueueEntries),
		respQ:      newTimedQueue(cfg.L2.ResponseQueueEntries),
		portCycles: int64((cfg.L2.LineBytes + cfg.L2.DataPortBytes - 1) / cfg.L2.DataPortBytes),
		tagLat:     int64(cfg.L2.TagLatency),
	}
}

// SetFetchPool wires the freelist the bank draws miss and write-back
// fetches from and releases dead fetches to. A nil pool is valid.
func (b *Bank) SetFetchPool(p *mem.FetchPool) { b.pool = p }

// CanAccept reports whether the access queue has room for a new request.
func (b *Bank) CanAccept() bool { return !b.accessQ.Full() }

// Accept enqueues a request arriving from the request crossbar.
func (b *Bank) Accept(f *mem.Fetch) bool {
	return b.accessQ.Push(f)
}

// CanFill reports whether a DRAM fill for f can be applied this cycle:
// the data port must be free and the previous fill's replies fully drained.
func (b *Bank) CanFill(f *mem.Fetch) bool {
	return b.portBusyUntil <= b.now && len(b.fillPending) == 0
}

// Fill applies a DRAM fill: install the reserved line, release the MSHR
// entry, and queue one reply per merged requester. The replies drain into
// the response queue one per cycle as space allows. The fill fetch itself
// (the bank-generated DRAM request) dies here and returns to the pool.
func (b *Bank) Fill(f *mem.Fetch) {
	b.parked = false // tags, MSHR and port state all change here
	b.Stats.Fills++
	b.tags.Fill(f.Addr)
	b.portBusyUntil = b.now + b.portCycles
	b.fillReady = b.now + b.portCycles
	for _, w := range b.mshr.Release(f.Addr) {
		if !w.Type.NeedsReply() {
			b.pool.Put(w)
			continue
		}
		w.L2Hit = false
		w.SizeBytes = b.cfg.L2.LineBytes
		b.fillPending = append(b.fillPending, w)
	}
	b.pool.Put(f)
}

// drainFill moves one pending fill reply into the response queue.
func (b *Bank) drainFill() {
	if len(b.fillPending) == 0 || b.respQ.Full() {
		return
	}
	if !b.respQ.push(b.fillPending[0], b.fillReady) {
		return
	}
	copy(b.fillPending, b.fillPending[1:])
	b.fillPending = b.fillPending[:len(b.fillPending)-1]
}

// PopResponse returns the next reply packet ready for the reply crossbar.
func (b *Bank) PopResponse() (*mem.Fetch, bool) {
	f, ok := b.respQ.peek(b.now)
	if ok {
		b.respQ.pop()
		b.parked = false // a drained slot may unblock a bp-ICNT stall
	}
	return f, ok
}

// PeekResponse reports whether a reply packet is ready.
func (b *Bank) PeekResponse() (*mem.Fetch, bool) { return b.respQ.peek(b.now) }

// PopMiss returns the next request ready for the DRAM scheduler queue.
func (b *Bank) PopMiss() (*mem.Fetch, bool) {
	f, ok := b.missQ.peek(b.now)
	if ok {
		b.missQ.pop()
		b.parked = false // a drained slot may unblock a bp-DRAM stall
	}
	return f, ok
}

// PeekMiss reports whether a miss request is ready for DRAM.
func (b *Bank) PeekMiss() (*mem.Fetch, bool) { return b.missQ.peek(b.now) }

// Tick advances the bank one L2 cycle, processing at most the head of the
// access queue and recording stall attribution when it is blocked.
func (b *Bank) Tick() {
	b.now++
	if len(b.fillPending) > 0 {
		b.drainFill()
	}
	occ := b.accessQ.Len()
	if occ == 0 {
		return
	}
	b.Stats.AccessOccupancy.Observe(occ, b.accessQ.Cap())
	if b.parked {
		if b.parkedUntil > b.now {
			// The head re-attempt would fail exactly as it did last cycle:
			// replay its attribution without the tag and queue lookups.
			b.Stats.StallCycles[b.parkedCause]++
			return
		}
		b.parked = false
	}
	f, _ := b.accessQ.Peek()
	cause := b.process(f)
	if cause == StallNone {
		b.accessQ.Pop()
		if !f.Type.NeedsReply() {
			// Stores and write-backs are absorbed here: the fetch has no
			// further life (any DRAM traffic uses a fresh fetch).
			b.pool.Put(f)
		}
		return
	}
	b.Stats.StallCycles[cause]++
	b.parked = true
	b.parkedCause = cause
	if cause == StallPort {
		b.parkedUntil = b.portBusyUntil
	} else {
		b.parkedUntil = math.MaxInt64
	}
}

// NextWake returns the earliest L2-clock tick (the value now reaches in
// that Tick) at which Tick, or a hand-off reading the bank, can do
// anything but replay a parked head's attribution: the next tick while a
// fill drains or the access-queue head can be attempted, the port freeing
// under a head parked on it (parkedUntil), the miss- and response-queue
// heads leaving the bank pipeline (the next tick if one already has and
// its hand-off is blocked), and the data port falling idle (Busy, which
// the profiler samples, flips there). It is sched.Never when only an
// Accept, a Fill or a queue pop can change anything. Early is harmless,
// late never happens.
func (b *Bank) NextWake() int64 {
	next := b.now + 1
	if len(b.fillPending) > 0 {
		return next
	}
	wake := sched.Never
	if !b.accessQ.Empty() {
		if !b.parked {
			return next
		}
		wake = b.parkedUntil
	}
	wake = min(wake, b.missQ.headReady, b.respQ.headReady)
	if b.portBusyUntil > b.now {
		wake = min(wake, b.portBusyUntil)
	}
	return max(wake, next)
}

// SkipTo replays the frozen Ticks up to tick in closed form: the clock
// advances and, if a parked head waits, so do its stall cause and the
// access-queue occupancy histogram — exactly what those Ticks replaying
// the park memo would record. At or behind the clock it does nothing.
// Valid while the bank is frozen: across any span that ends before
// NextWake().
func (b *Bank) SkipTo(tick int64) {
	n := tick - b.now
	if n <= 0 {
		return
	}
	b.now = tick
	if occ := b.accessQ.Len(); occ > 0 {
		b.Stats.AccessOccupancy.ObserveN(occ, b.accessQ.Cap(), n)
		b.Stats.StallCycles[b.parkedCause] += n
	}
}

// process attempts to service f, returning StallNone on success or the
// blocking cause. It must only mutate state when it succeeds.
func (b *Bank) process(f *mem.Fetch) StallCause {
	switch f.Type {
	case mem.DataRead, mem.InstRead:
		return b.processRead(f)
	case mem.DataWrite:
		return b.processWrite(f)
	default:
		// Write-backs never travel core→L2.
		return b.processWrite(f)
	}
}

func (b *Bank) processRead(f *mem.Fetch) StallCause {
	addr := b.tags.LineAddr(f.Addr)
	switch b.tags.Probe(addr) {
	case cache.Valid:
		// Hit: occupy the port for one line time and emit the reply.
		if b.portBusyUntil > b.now {
			return StallPort
		}
		if b.respQ.Full() {
			return StallBpICNT
		}
		b.tags.Access(addr)
		b.portBusyUntil = b.now + b.portCycles
		f.L2Hit = true
		f.SizeBytes = b.cfg.L2.LineBytes
		b.respQ.push(f, b.now+b.tagLat+b.portCycles)
		b.Stats.Accesses++
		b.Stats.Hits++
		return StallNone

	case cache.Reserved:
		// Secondary miss: merge with the outstanding fill.
		if !b.mshr.CanAccept(addr) {
			return StallMSHR
		}
		b.mshr.Allocate(addr, f)
		b.Stats.Accesses++
		b.Stats.Merged++
		return StallNone

	default: // miss
		if !b.mshr.CanAccept(addr) {
			return StallMSHR
		}
		if !b.tags.HasReplaceable(addr) {
			return StallCache
		}
		// A dirty victim needs a second miss-queue slot for its
		// write-back; with one slot left the bank waits even for a clean
		// victim (counts as DRAM backpressure).
		if b.missQ.Free() < 2 {
			return StallBpDRAM
		}
		res := b.mshr.Allocate(addr, f)
		if res != cache.AllocNew {
			panic("l2: unexpected MSHR state on primary miss: " + res.String())
		}
		victim, ok := b.tags.ReserveVictim(addr)
		if !ok {
			panic("l2: no victim despite HasReplaceable")
		}
		miss := b.pool.Get()
		*miss = mem.Fetch{
			ID:     f.ID,
			Type:   mem.DataRead,
			Addr:   addr,
			CoreID: f.CoreID,
			BankID: b.ID,
		}
		b.missQ.push(miss, b.now+b.tagLat)
		if victim.Valid && victim.Dirty {
			b.pushWriteBack(victim.Addr)
		}
		b.Stats.Accesses++
		b.Stats.Misses++
		return StallNone
	}
}

// processWrite implements the L2's write-back, write-allocate policy for
// the (coalesced, full-line) stores the cores emit. Stores produce no
// reply packets.
func (b *Bank) processWrite(f *mem.Fetch) StallCause {
	addr := b.tags.LineAddr(f.Addr)
	switch b.tags.Probe(addr) {
	case cache.Valid:
		if b.portBusyUntil > b.now {
			return StallPort
		}
		b.tags.MarkDirty(addr)
		b.portBusyUntil = b.now + b.portCycles
		b.Stats.Accesses++
		b.Stats.Writes++
		return StallNone

	case cache.Reserved:
		// The line is being filled for someone else; write through to
		// DRAM to avoid ordering complexity (a rare case with the
		// full-line stores the workloads generate).
		if b.missQ.Full() {
			return StallBpDRAM
		}
		b.missQ.push(b.dramWrite(addr, f), b.now+b.tagLat)
		b.Stats.Accesses++
		b.Stats.Writes++
		return StallNone

	default: // write miss: allocate without fetch (full-line store)
		if b.portBusyUntil > b.now {
			return StallPort
		}
		if !b.tags.HasReplaceable(addr) {
			return StallCache
		}
		if b.missQ.Full() {
			// The victim may be dirty and need a write-back slot.
			return StallBpDRAM
		}
		victim, _ := b.tags.ReserveVictim(addr)
		b.tags.Fill(addr)
		b.tags.MarkDirty(addr)
		b.portBusyUntil = b.now + b.portCycles
		if victim.Valid && victim.Dirty {
			b.pushWriteBack(victim.Addr)
		}
		b.Stats.Accesses++
		b.Stats.Writes++
		return StallNone
	}
}

func (b *Bank) pushWriteBack(addr uint64) {
	wb := b.pool.Get()
	*wb = mem.Fetch{
		Type:      mem.WriteBack,
		Addr:      addr,
		SizeBytes: b.cfg.L2.LineBytes,
		CoreID:    -1,
		BankID:    b.ID,
	}
	if !b.missQ.push(wb, b.now+b.tagLat) {
		panic("l2: miss queue overflow pushing write-back")
	}
	b.Stats.WriteBack++
}

func (b *Bank) dramWrite(addr uint64, orig *mem.Fetch) *mem.Fetch {
	f := b.pool.Get()
	*f = mem.Fetch{
		ID:        orig.ID,
		Type:      mem.WriteBack,
		Addr:      addr,
		SizeBytes: b.cfg.L2.LineBytes,
		CoreID:    orig.CoreID,
		BankID:    b.ID,
	}
	return f
}

// MSHROcc reports the bank's MSHR live-entry count — the profiler's
// l2/mshr gauge (capacity is the config's L2.MSHREntries).
func (b *Bank) MSHROcc() int { return b.mshr.Len() }

// MissQueueOcc reports the miss queue's occupancy and capacity — the
// profiler's l2/miss-queue gauge.
func (b *Bank) MissQueueOcc() (length, capacity int) {
	return b.missQ.Len(), b.missQ.Cap()
}

// Busy reports whether the bank is doing or holding work this cycle:
// its data port is mid-transfer, requests wait in the access queue, or a
// fill is still draining merged replies. The profiler's l2/bank-busy
// series is the fraction of banks for which this holds.
func (b *Bank) Busy() bool {
	return b.portBusyUntil > b.now || !b.accessQ.Empty() || len(b.fillPending) > 0
}

package smcore

import (
	"fmt"
	"math"
	"math/bits"

	"gpumembw/internal/cache"
	"gpumembw/internal/config"
	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
	"gpumembw/internal/stats"
)

// Issue-stall categories, in the order of Fig. 7's legend.
const (
	StallDataMem = iota // data hazard on a pending load
	StallDataALU        // data hazard on a pending arithmetic op
	StallStrMem         // structural hazard in the memory pipeline
	StallStrALU         // structural hazard in the arithmetic pipeline
	StallFetch          // instruction buffers empty behind L1I misses
	NumIssueStalls
)

// IssueStallLabels are the Fig. 7 legend names.
var IssueStallLabels = []string{"data-MEM", "data-ALU", "str-MEM", "str-ALU", "fetch"}

// L1 stall categories, in the order of Fig. 9's legend.
const (
	L1StallCache = iota // no replaceable line (all ways reserved)
	L1StallMSHR         // MSHR entries or merge capacity exhausted
	L1StallBpL2         // miss queue full: back pressure from L2
	NumL1Stalls
)

// L1StallLabels are the Fig. 9 legend names.
var L1StallLabels = []string{"cache", "mshr", "bp-L2"}

// heavyALUInterval and latencies of the two arithmetic classes.
const (
	heavyALUInterval = 8
	heavyALULatency  = 16
)

const ibufCap = 2

type warp struct {
	id      int
	fetched int64 // instructions brought into the i-buffer so far
	issued  int64 // instructions issued so far
	total   int64

	// bodyIdx and iter track the issue position incrementally
	// (bodyIdx == issued % len(body), iter == issued / len(body)).
	bodyIdx  int
	iter     int
	fetchIdx int // fetch position: fetched % len(body)

	ibuf    [ibufCap]Inst
	ibufLen int

	// The scoreboard tells time: ready[d] is the cycle register d's result
	// lands, unresolved[d] the load lines of d the LSU has yet to resolve
	// (each raises ready[d] when it does), d numbering the registers the
	// program writes (Core.dense): a hazard while unresolved[d] > 0 ||
	// ready[d] > now. The masks in front are the one-AND fast path, cleared
	// lazily; by the WAW check on Dest a register is never in both.
	pendingLoad uint64
	pendingALU  uint64
	ready       []int64
	unresolved  []uint8

	// addrCache memoizes the coalesced addresses of the instruction at
	// issue position addrCacheFor, so a memory instruction blocked for
	// hundreds of cycles does not regenerate them every scheduler scan.
	addrCache    []uint64
	addrCacheFor int64
}

// tx is one coalesced memory transaction in the LSU pipeline.
type tx struct {
	warpID int32
	reg    int8 // destination register; -1 for stores
	store  bool
	line   uint64
}

// hazardSet is blockedMem or blockedALU: a bitset of the warps parked on a
// data hazard and the earliest of their Core.wake cycles.
type hazardSet struct {
	warps []uint64
	wake  int64
}

// anySet reports whether the bitset ws holds a set bit.
func anySet(ws []uint64) bool {
	for _, w := range ws {
		if w != 0 {
			return true
		}
	}
	return false
}

// NewFetchFn mints a routed memory fetch; the GPU provides it so the core
// stays decoupled from the interconnect and address mapping.
type NewFetchFn func(addr uint64, typ mem.AccessType, sizeBytes, coreID, warpID int, issueCycle int64) *mem.Fetch

// InjectStampFn reports the request crossbar's drain stamp for this core's
// injection port (icnt.Network.DrainStamp): it moves only when a flit
// leaves the port's FIFO, so an unchanged stamp proves a failed injection
// would fail again.
type InjectStampFn func() uint64

// InjectFn pushes a request packet into the request crossbar, returning
// false when the injection port is full.
type InjectFn func(f *mem.Fetch) bool

// IdealLatencyFn returns the P∞ latency of a miss on addr (120 core cycles
// for a functional-L2 hit, 220 for a miss).
type IdealLatencyFn func(addr uint64) int64

// CoreStats aggregates everything the paper measures at the core.
type CoreStats struct {
	Cycles int64 // active cycles, until the core drained
	Issued int64

	IssueStalls [NumIssueStalls]int64
	L1Stalls    [NumL1Stalls]int64

	L1Accesses int64
	L1Hits     int64
	L1Misses   int64
	L1Merged   int64

	IMisses    int64
	StoresSent int64

	AML   stats.LatencySampler // round-trip latency of every L1 miss
	L2AHL stats.LatencySampler // round trip of misses served by the L2
}

// IssueStallCycles returns the total stalled issue cycles.
func (s *CoreStats) IssueStallCycles() int64 {
	var t int64
	for _, v := range s.IssueStalls {
		t += v
	}
	return t
}

// L1MissRate returns misses (including merged) over L1 accesses.
func (s *CoreStats) L1MissRate() float64 {
	return stats.Ratio(s.L1Misses+s.L1Merged, s.L1Accesses)
}

// Core is one simulated SM.
type Core struct {
	ID  int
	cfg *config.Config
	wl  *Workload

	warps   []warp
	greedy  int32
	fetchRR int

	icache *cache.TagArray
	// iPending tracks instruction-cache lines with a fill in flight as a
	// bitset over the program's code lines (the code segment is a small
	// contiguous range, so index-based bits replace the former
	// map[uint64]bool and its per-access hashing).
	iPending     []uint64
	codeLineBase uint64 // line address of the first code line
	iLineShift   uint   // log2 of the L1I line size
	iMissQ       *mem.Queue[*mem.Fetch]

	l1    *cache.TagArray
	mshr  *cache.MSHR[tx]
	missQ *mem.Queue[*mem.Fetch]
	memQ  *mem.Queue[tx]

	respFIFO *mem.Queue[*mem.Fetch]

	pending fills    // scheduled L1I fills
	dueBuf  []uint64 // applyCompletions scratch

	now            int64
	heavyBusyUntil int64
	injectToggle   bool // alternate data/instruction miss injection

	// regMasks[i] is the scoreboard mask of body instruction i,
	// precomputed so the scheduler scan does no per-cycle bit assembly.
	regMasks  []uint64
	dense     [NumRegs]int8 // numbers the registers the program writes, ≈ 30 of the 64
	lastReady int64         // latest ready-cycle written: past it no result is outstanding
	// landAt[t&mask] == t on the cycles a register result lands, kept only to
	// reproduce issueTick's defect; one beyond it rides the fill list as noLine.
	landAt []int64
	// fetchMask holds the warps with i-buffer space and instructions left
	// as a bitset, so fetchTick jumps straight to the next eligible warp
	// instead of scanning.
	fetchMask []uint64
	// fetchParked memoizes "every eligible warp's next code line has a
	// fill in flight": in that state fetchTick only rotates the round-
	// robin pointer, which SkipTo can replay in bulk. The memo is
	// invalidated whenever the eligibility mask, a fetch position, or the
	// pending-fill set changes.
	fetchParked      bool
	fetchParkedValid bool
	// issueDirty marks that core state changed since the last scheduler
	// scan; while clear, a stalled scan would classify identically, so
	// issueTick replays lastStall instead of rescanning every warp.
	issueDirty bool
	lastStall  int // cached classification; -1 when no stall was recorded

	// hasInst is the ready set: warps with a non-empty i-buffer (set in
	// fetchTick, cleared in tryIssue), the only ones the scheduler scan
	// offers to tryIssue — a fetch-starved warp would bounce off it
	// untouched. aliveCount counts warps with instructions left to issue.
	// blockedMem and blockedALU mark warps whose head instruction hit a
	// data hazard. A warp is in order, so nothing adds a hazard to a parked
	// head, and once the LSU has resolved its load lines the cycle it
	// clears is known: the warp parks with that cycle (or one no later) in
	// wake, the scan skips it outright — with 48 warps mostly waiting on
	// loads it touches a handful — and Tick releases it then. Which sets
	// are non-empty feeds the stall classification for the skipped warps.
	//
	// blockedStr and blockedHeavy park structural hazards the same way:
	// a warp that found too little memory-pipeline space stays parked until
	// a slot frees (the memQ pop in Tick unparks them all), and a warp that
	// found the heavy pipe reserved stays parked until the reservation
	// expires (checked at the top of each scan). Both conditions are frozen
	// in between, so re-scanning those warps would fail identically.
	hasInst      []uint64
	aliveCount   int
	blockedMem   hazardSet
	blockedALU   hazardSet
	wake         []int64
	blockedStr   []uint64
	blockedHeavy []uint64

	// lsuParked memoizes a blocked memory-pipeline head: the head's L1
	// lookup, MSHR probe and miss-queue check depend only on L1/MSHR/miss-
	// queue state, none of which can change while the head stays blocked
	// except through a reply (consumeResponse) or a miss-queue drain — both
	// of which clear the memo. While parked, lsuTick replays the recorded
	// stall class without redoing the lookups.
	lsuParked      bool
	lsuParkedStall int

	newFetch NewFetchFn
	inject   InjectFn
	idealLat IdealLatencyFn

	// injectFailF memoizes a head packet whose injection bounced off
	// crossbar backpressure, with the port's drain stamp at the time; the
	// retry is skipped until the stamp moves. The pointer cannot go stale:
	// the packet stays at its queue's head until the injection succeeds,
	// which clears the memo. The queue lengths at the bounce let the next
	// attempt skip even the head peeks: equal lengths (pops happen only on
	// success, which clears the memo) mean the same queue choice and the
	// same head.
	injectStamp        InjectStampFn
	injectFailF        *mem.Fetch
	injectFailStamp    uint64
	injectFailMissLen  int
	injectFailIMissLen int
	pool               *mem.FetchPool

	done bool

	Stats CoreStats
}

// NewCore builds SM id running the given workload. For ModeNormal the GPU
// must wire Inject; for ModeInfiniteBW it must wire IdealLatency.
func NewCore(id int, cfg *config.Config, wl *Workload, newFetch NewFetchFn) *Core {
	nWarps := cfg.Core.WarpsPerCore
	if wl.WarpsPerCore > 0 && wl.WarpsPerCore < nWarps {
		nWarps = wl.WarpsPerCore
	}
	// The ideal modes remove every structural limit in the memory system:
	// their L1 miss path is unlimited (size 0), and its four knobs are dead
	// there — Validate does not bound them, so they are never read.
	missPath := cfg.L1
	if cfg.Mode != config.ModeNormal {
		missPath.MSHREntries, missPath.MSHRMaxMerge, missPath.MissQueueEntries, missPath.ResponseFIFO = 0, 0, 0, 0
	}
	c := &Core{
		ID:       id,
		cfg:      cfg,
		wl:       wl,
		warps:    make([]warp, nWarps),
		icache:   cache.NewTagArray(cfg.L1.ICacheSizeBytes/cfg.L1.LineBytes/cfg.L1.ICacheWays, cfg.L1.ICacheWays, cfg.L1.LineBytes, 1),
		iMissQ:   mem.NewQueue[*mem.Fetch](missPath.MissQueueEntries),
		l1:       cache.NewTagArray(cfg.L1Sets(), cfg.L1.Ways, cfg.L1.LineBytes, 1),
		mshr:     cache.NewMSHR[tx](missPath.MSHREntries, missPath.MSHRMaxMerge),
		missQ:    mem.NewQueue[*mem.Fetch](missPath.MissQueueEntries),
		memQ:     mem.NewQueue[tx](cfg.Core.MemPipelineWidth),
		respFIFO: mem.NewQueue[*mem.Fetch](missPath.ResponseFIFO),
		newFetch: newFetch,
		pending:  fills{next: math.MaxInt64},
	}
	c.iLineShift = uint(bits.TrailingZeros64(uint64(cfg.L1.LineBytes)))
	c.codeLineBase = c.icache.LineAddr(wl.Program.PCAddr(0)) >> c.iLineShift
	lastLine := c.icache.LineAddr(wl.Program.PCAddr(len(wl.Program.Body)-1)) >> c.iLineShift
	c.iPending = make([]uint64, (lastLine-c.codeLineBase)/64+1)
	total := wl.Program.TotalInsts()
	for i := range c.warps {
		c.warps[i] = warp{id: i, total: total, addrCacheFor: -1}
	}
	c.fetchMask = make([]uint64, (nWarps+63)/64)
	for i := 0; i < nWarps; i++ {
		c.fetchMask[i>>6] |= 1 << uint(i&63)
	}
	c.hasInst = make([]uint64, (nWarps+63)/64)
	if total > 0 {
		c.aliveCount = nWarps
	}
	c.blockedMem = hazardSet{warps: make([]uint64, (nWarps+63)/64), wake: math.MaxInt64}
	c.blockedALU = hazardSet{warps: make([]uint64, (nWarps+63)/64), wake: math.MaxInt64}
	c.wake = make([]int64, nWarps)
	c.blockedStr = make([]uint64, (nWarps+63)/64)
	c.blockedHeavy = make([]uint64, (nWarps+63)/64)
	c.issueDirty = true
	c.lastStall = -1
	c.regMasks = make([]uint64, len(wl.Program.Body))
	var written uint64
	for i, in := range wl.Program.Body {
		var mask uint64
		for _, r := range [3]int8{in.Dest, in.Src1, in.Src2} {
			if r >= 0 {
				mask |= uint64(1) << uint(r)
			}
		}
		c.regMasks[i] = mask
		if in.Dest >= 0 && written&(1<<uint(in.Dest)) == 0 {
			c.dense[in.Dest] = int8(bits.OnesCount64(written))
			written |= 1 << uint(in.Dest)
		}
	}
	nDense := bits.OnesCount64(written)
	ready, unresolved := make([]int64, nWarps*nDense), make([]uint8, nWarps*nDense)
	for i := range c.warps {
		c.warps[i].ready, c.warps[i].unresolved = ready[i*nDense:][:nDense], unresolved[i*nDense:][:nDense]
	}
	longest := max(cfg.Core.ALULatency, heavyALULatency, cfg.L1.HitLatency) // result latency live in the mode
	switch cfg.Mode {
	case config.ModeFixedL1MissLat:
		longest += cfg.FixedL1MissLatency
	case config.ModeInfiniteBW:
		longest += max(cfg.IdealL2HitLatency, cfg.IdealMemLatency)
	}
	c.landAt = make([]int64, 1<<bits.Len(uint(min(longest, 1<<12-1)))) // the power of two above it; 32 KiB at most
	return c
}

// SetInject wires the request-network injection callback (ModeNormal).
func (c *Core) SetInject(fn InjectFn) { c.inject = fn }

// SetInjectStamp wires the request-network drain-stamp callback that lets
// the core skip provably futile re-injections under backpressure.
func (c *Core) SetInjectStamp(fn InjectStampFn) { c.injectStamp = fn }

// SetIdealLatency wires the P∞ latency oracle (ModeInfiniteBW).
func (c *Core) SetIdealLatency(fn IdealLatencyFn) { c.idealLat = fn }

// SetFetchPool wires the freelist that receives consumed reply fetches.
// A nil pool is valid.
func (c *Core) SetFetchPool(p *mem.FetchPool) { c.pool = p }

// iPendingIdx maps a code-line address to its bit index.
func (c *Core) iPendingIdx(line uint64) uint64 {
	return (line >> c.iLineShift) - c.codeLineBase
}

func (c *Core) iPendingTest(line uint64) bool {
	i := c.iPendingIdx(line)
	return c.iPending[i>>6]&(1<<(i&63)) != 0
}

func (c *Core) iPendingSet(line uint64) {
	i := c.iPendingIdx(line)
	c.iPending[i>>6] |= 1 << (i & 63)
	c.fetchParkedValid = false
}

func (c *Core) iPendingClear(line uint64) {
	i := c.iPendingIdx(line)
	c.iPending[i>>6] &^= 1 << (i & 63)
	c.fetchParkedValid = false // a landed fill may unblock the fetch stage
}

// Done reports whether every warp has retired all instructions and every
// outstanding memory operation has drained.
func (c *Core) Done() bool { return c.done }

// CanAcceptResponse reports whether the reply-ejection FIFO has room.
func (c *Core) CanAcceptResponse() bool { return !c.respFIFO.Full() }

// AcceptResponse hands the core a reply packet from the reply crossbar.
func (c *Core) AcceptResponse(f *mem.Fetch) bool {
	return c.respFIFO.Push(f)
}

// Tick advances the core one cycle.
func (c *Core) Tick() {
	if c.done {
		return
	}
	c.now++
	c.Stats.Cycles++
	if c.blockedMem.wake <= c.now {
		c.release(&c.blockedMem)
	}
	if c.blockedALU.wake <= c.now {
		c.release(&c.blockedALU)
	}
	c.applyCompletions()
	c.consumeResponse()
	memQBefore := c.memQ.Len()
	c.lsuTick()
	if c.memQ.Len() != memQBefore {
		c.issueDirty = true // LSU freed memory-pipeline slots
		clear(c.blockedStr)
	}
	c.issueTick()
	c.fetchTick()
	c.drainMissQueues()
	c.checkDone()
}

const noLine = ^uint64(0) // the fill of no line: landing, it only dirties the scan

// applyCompletions lands every L1I fill due this cycle.
func (c *Core) applyCompletions() {
	if c.pending.next > c.now {
		return
	}
	c.issueDirty = true
	c.dueBuf = c.pending.drain(c.now, c.dueBuf[:0])
	for _, line := range c.dueBuf {
		if line != noLine {
			c.icache.Fill(line)
			c.iPendingClear(line)
		}
	}
}

// result notes a register result landing delta (at least one) cycles on.
func (c *Core) result(delta int64) int64 {
	at := c.now + max(delta, 1)
	c.lastReady = max(c.lastReady, at)
	if at-c.now < int64(len(c.landAt)) {
		c.landAt[at&int64(len(c.landAt)-1)] = at
	} else {
		c.pending.push(at, noLine)
	}
	return at
}

// resolve is the LSU learning that a line of load t lands delta cycles on.
// The last one has a parked warp re-checked, no later than its release.
func (c *Core) resolve(t tx, delta int64) {
	w, d := &c.warps[t.warpID], c.dense[t.reg]
	w.ready[d] = max(w.ready[d], c.result(delta))
	w.unresolved[d]--
	if w.unresolved[d] == 0 && c.blockedMem.warps[t.warpID>>6]&(1<<uint(t.warpID&63)) != 0 {
		c.wake[t.warpID] = min(c.wake[t.warpID], w.ready[d])
		c.blockedMem.wake = min(c.blockedMem.wake, w.ready[d])
	}
}

// hazard returns the cycle w's registers in *pending&regs all hold their
// result by: 0 if they do (and leave *pending), MaxInt64 with a line unresolved.
func (c *Core) hazard(w *warp, pending *uint64, regs uint64) int64 {
	var at int64
	for m := *pending & regs; m != 0; m &= m - 1 {
		switch d := c.dense[bits.TrailingZeros64(m)]; {
		case w.unresolved[d] != 0:
			at = math.MaxInt64
		case w.ready[d] > c.now:
			at = max(at, w.ready[d])
		default:
			*pending &^= m & -m
		}
	}
	return at
}

// parks reports whether hazard finds one, parking w (which the scan
// offered: it is in no set) in s until the cycle it names.
func (c *Core) parks(w *warp, pending *uint64, regs uint64, s *hazardSet) bool {
	at := c.hazard(w, pending, regs)
	if at != 0 {
		s.warps[w.id>>6] |= 1 << uint(w.id&63)
		c.wake[w.id], s.wake = at, min(s.wake, at)
	}
	return at != 0
}

// release re-checks the warps of s whose wake has arrived, puts those free
// of their hazard back in the scan and leaves s.wake to the rest.
func (c *Core) release(s *hazardSet) {
	s.wake = math.MaxInt64
	for wi, word := range s.warps {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 + bits.TrailingZeros64(word)
			if c.wake[i] <= c.now {
				w := &c.warps[i]
				pending := &w.pendingALU
				if s == &c.blockedMem {
					pending = &w.pendingLoad
				}
				if c.wake[i] = c.hazard(w, pending, c.regMasks[w.bodyIdx]); c.wake[i] == 0 {
					s.warps[wi] &^= word & -word
					c.issueDirty = true
					continue
				}
			}
			s.wake = min(s.wake, c.wake[i])
		}
	}
}

// consumeResponse retires one reply packet per cycle: L1I fills and L1D
// fills with MSHR release and scoreboard wake-up. The reply fetch dies
// here and returns to the pool.
func (c *Core) consumeResponse() {
	if c.respFIFO.Empty() {
		return
	}
	f, _ := c.respFIFO.Pop()
	c.lsuParked = false // a fill or MSHR release may unblock the LSU head
	lat := c.now - f.IssueCycle
	switch f.Type {
	case mem.InstRead:
		c.icache.Fill(f.Addr)
		c.iPendingClear(f.Addr)
	case mem.DataRead:
		c.Stats.AML.Add(lat)
		if f.L2Hit {
			c.Stats.L2AHL.Add(lat)
		}
		c.l1.Fill(f.Addr)
		for _, t := range c.mshr.Release(f.Addr) {
			c.resolve(t, int64(c.cfg.L1.HitLatency))
		}
	default:
		panic("smcore: unexpected reply type " + f.Type.String())
	}
	c.pool.Put(f)
}

// lsuTick processes the head of the memory pipeline against the L1D,
// attributing blocked cycles per Fig. 9.
func (c *Core) lsuTick() {
	if c.memQ.Empty() {
		return
	}
	if c.lsuParked {
		// The head re-attempt would fail exactly as it did last cycle:
		// replay its stall attribution without the lookups.
		c.Stats.L1Stalls[c.lsuParkedStall]++
		return
	}
	head, _ := c.memQ.Peek()
	if c.cfg.Mode != config.ModeNormal {
		c.lsuIdeal(head)
		return
	}
	if head.store {
		if c.missQ.Full() {
			c.lsuParked, c.lsuParkedStall = true, L1StallBpL2
			c.Stats.L1Stalls[L1StallBpL2]++
			return
		}
		// Write-evict: drop the line if present and forward the store.
		if c.l1.Probe(head.line) == cache.Valid {
			c.l1.Invalidate(head.line)
		}
		f := c.newFetch(head.line, mem.DataWrite, c.cfg.L1.LineBytes, c.ID, int(head.warpID), c.now)
		c.missQ.Push(f)
		c.memQ.Pop()
		c.Stats.L1Accesses++
		c.Stats.StoresSent++
		return
	}
	// Load.
	if c.l1.Access(head.line) {
		c.resolve(head, int64(c.cfg.L1.HitLatency))
		c.memQ.Pop()
		c.Stats.L1Accesses++
		c.Stats.L1Hits++
		return
	}
	if c.mshr.Pending(head.line) {
		// Secondary miss: merge.
		if c.mshr.Allocate(head.line, head) != cache.AllocMerged {
			c.lsuParked, c.lsuParkedStall = true, L1StallMSHR
			c.Stats.L1Stalls[L1StallMSHR]++
			return
		}
		c.memQ.Pop()
		c.Stats.L1Accesses++
		c.Stats.L1Merged++
		return
	}
	// Primary miss: needs an MSHR entry, a replaceable line and a miss-
	// queue slot; the first missing resource names the stall (Fig. 9).
	if c.mshr.Full() {
		c.lsuParked, c.lsuParkedStall = true, L1StallMSHR
		c.Stats.L1Stalls[L1StallMSHR]++
		return
	}
	if !c.l1.HasReplaceable(head.line) {
		c.lsuParked, c.lsuParkedStall = true, L1StallCache
		c.Stats.L1Stalls[L1StallCache]++
		return
	}
	if c.missQ.Full() {
		c.lsuParked, c.lsuParkedStall = true, L1StallBpL2
		c.Stats.L1Stalls[L1StallBpL2]++
		return
	}
	if r := c.mshr.Allocate(head.line, head); r != cache.AllocNew {
		panic("smcore: unexpected MSHR result on primary miss: " + r.String())
	}
	// L1 victims are never dirty under write-evict, so eviction is silent.
	c.l1.ReserveVictim(head.line)
	f := c.newFetch(head.line, mem.DataRead, 0, c.ID, int(head.warpID), c.now)
	c.missQ.Push(f)
	c.memQ.Pop()
	c.Stats.L1Accesses++
	c.Stats.L1Misses++
}

// lsuIdeal services the LSU head under the P∞ / fixed-latency memory
// systems: no queues, no MSHR limits, minimum latencies only.
func (c *Core) lsuIdeal(head tx) {
	c.memQ.Pop()
	c.Stats.L1Accesses++
	if head.store {
		if c.l1.Probe(head.line) == cache.Valid {
			c.l1.Invalidate(head.line)
		}
		c.Stats.StoresSent++
		return
	}
	if c.l1.Access(head.line) {
		c.resolve(head, int64(c.cfg.L1.HitLatency))
		c.Stats.L1Hits++
		return
	}
	var lat int64
	if c.cfg.Mode == config.ModeFixedL1MissLat {
		lat = int64(c.cfg.FixedL1MissLatency)
	} else {
		lat = c.idealLat(head.line)
		if lat == int64(c.cfg.IdealL2HitLatency) {
			c.Stats.L2AHL.Add(lat)
		}
	}
	c.Stats.AML.Add(lat)
	c.l1.Fill(head.line) // functional install
	c.resolve(head, lat+int64(c.cfg.L1.HitLatency))
	c.Stats.L1Misses++
}

// issueTick implements the greedy-then-oldest scheduler and the Fig. 7
// stall taxonomy. The scan iterates only the ready set minus the warps
// parked on a hazard; the parked warps' stall contribution comes from the
// blocked counts, which classify exactly as scanning them would have.
func (c *Core) issueTick() {
	if !c.issueDirty {
		// Nothing changed since the last failed scan — unless a str-ALU
		// block just expired with time, the outcome is identical.
		// Known model defect, kept for golden identity: with warps parked in
		// blockedStr too the replayed stall is str-MEM and the freed heavy
		// pipe goes unnoticed until the scan is dirtied, which a register
		// clear landing did: a tick a result lands on re-scans. The story and
		// the fix are on TestHeavyReleaseWaitsForDirtyScan.
		if c.heavyBusyUntil <= c.now && (c.lastStall == StallStrALU ||
			anySet(c.blockedHeavy) && c.landAt[c.now&int64(len(c.landAt)-1)] == c.now) {
			c.issueDirty = true
		} else {
			if c.lastStall >= 0 {
				c.Stats.IssueStalls[c.lastStall]++
			}
			return
		}
	}
	c.issueDirty = false
	if c.heavyBusyUntil <= c.now && anySet(c.blockedHeavy) {
		// The heavy-pipe reservation expired: its parked warps can issue again.
		clear(c.blockedHeavy)
	}
	gWord, gBit := c.greedy>>6, uint64(1)<<uint(c.greedy&63)
	if c.hasInst[gWord]&^(c.blockedMem.warps[gWord]|c.blockedALU.warps[gWord]|c.blockedStr[gWord]|c.blockedHeavy[gWord])&gBit != 0 &&
		c.tryIssue(&c.warps[c.greedy]) {
		c.issueDirty = true
		c.lastStall = -1
		return
	}
	for wi, word := range c.hasInst {
		cand := word &^ (c.blockedMem.warps[wi] | c.blockedALU.warps[wi] | c.blockedStr[wi] | c.blockedHeavy[wi])
		for cand != 0 {
			i := wi<<6 + bits.TrailingZeros64(cand)
			cand &= cand - 1
			if int32(i) == c.greedy {
				continue
			}
			if c.tryIssue(&c.warps[i]) {
				c.greedy = int32(i)
				c.issueDirty = true
				c.lastStall = -1
				return
			}
		}
	}
	c.lastStall = -1
	if c.aliveCount == 0 {
		return
	}
	// Nothing issued: classify per §IV-A5 — structural beats data beats
	// fetch. Parked warps classify exactly as scanning them would have:
	// their hazard condition is frozen while they sit parked. A ready
	// warp that does not issue parks itself in one of the four sets, so
	// with all four empty so was the ready set: every live warp awaits a
	// fetch.
	switch {
	case anySet(c.blockedStr):
		c.lastStall = StallStrMem
	case anySet(c.blockedHeavy):
		c.lastStall = StallStrALU
	case anySet(c.blockedMem.warps):
		c.lastStall = StallDataMem
	case anySet(c.blockedALU.warps):
		c.lastStall = StallDataALU
	default:
		c.lastStall = StallFetch
	}
	c.Stats.IssueStalls[c.lastStall]++
}

// tryIssue attempts to issue warp w's oldest buffered instruction, parking
// the warp on whichever hazard stops it. Callers offer only warps in the
// ready set, so w's i-buffer is never empty here.
func (c *Core) tryIssue(w *warp) bool {
	in := w.ibuf[0]
	mask := c.regMasks[w.bodyIdx]
	if w.pendingLoad&mask != 0 && c.parks(w, &w.pendingLoad, mask, &c.blockedMem) ||
		w.pendingALU&mask != 0 && c.parks(w, &w.pendingALU, mask, &c.blockedALU) {
		return false
	}
	switch in.Kind {
	case OpLoad, OpStore:
		if w.addrCacheFor != w.issued {
			w.addrCache = c.wl.Addr(w.addrCache[:0], c.ID, w.id, w.iter, w.bodyIdx)
			w.addrCacheFor = w.issued
		}
		if len(w.addrCache) == 0 {
			panic("smcore: memory instruction generated no addresses")
		}
		if c.memQ.Free() < len(w.addrCache) {
			// Park until a memory-pipeline slot frees: the warp's head and
			// address list are frozen, and memQ space only grows on a pop.
			c.blockedStr[w.id>>6] |= 1 << uint(w.id&63)
			return false
		}
		isStore := in.Kind == OpStore
		for _, line := range w.addrCache {
			c.memQ.Push(tx{warpID: int32(w.id), reg: in.Dest, store: isStore, line: c.l1.LineAddr(line)})
		}
		if !isStore {
			w.pendingLoad |= uint64(1) << uint(in.Dest)
			w.unresolved[c.dense[in.Dest]] = uint8(len(w.addrCache))
		}
	case OpHeavyALU:
		if c.heavyBusyUntil > c.now {
			// Park until the reservation expires; the scan's entry check
			// unparks every heavy-blocked warp once it does.
			c.blockedHeavy[w.id>>6] |= 1 << uint(w.id&63)
			return false
		}
		c.heavyBusyUntil = c.now + heavyALUInterval
		if in.Dest >= 0 {
			w.pendingALU |= uint64(1) << uint(in.Dest)
			w.ready[c.dense[in.Dest]] = c.result(heavyALULatency)
		}
	case OpALU:
		if in.Dest >= 0 {
			w.pendingALU |= uint64(1) << uint(in.Dest)
			w.ready[c.dense[in.Dest]] = c.result(int64(c.cfg.Core.ALULatency))
		}
	}
	// Retire from the i-buffer.
	copy(w.ibuf[:], w.ibuf[1:w.ibufLen])
	if w.ibufLen == ibufCap && w.fetched < w.total {
		c.fetchMask[w.id>>6] |= 1 << uint(w.id&63)
		c.fetchParkedValid = false // the eligible-warp set changed
	}
	w.ibufLen--
	if w.ibufLen == 0 {
		c.hasInst[w.id>>6] &^= 1 << uint(w.id&63)
	}
	w.issued++
	w.bodyIdx++
	if w.bodyIdx == len(c.wl.Program.Body) {
		w.bodyIdx = 0
		w.iter++
	}
	if w.issued == w.total {
		c.aliveCount--
	}
	c.Stats.Issued++
	return true
}

// nextFetchWarp returns the first warp index with a set fetchMask bit at
// or cyclically after start, or -1 when the mask is empty.
func (c *Core) nextFetchWarp(start int) int {
	words := c.fetchMask
	w := start >> 6
	if rest := words[w] >> uint(start&63); rest != 0 {
		return start + bits.TrailingZeros64(rest)
	}
	// The rest of word w held no bit at or after start; continue with the
	// following words and wrap around to w, whose low bits (below start)
	// are the cyclically last candidates.
	for i := 1; i <= len(words); i++ {
		j := w + i
		if j >= len(words) {
			j -= len(words)
		}
		if words[j] != 0 {
			return j<<6 + bits.TrailingZeros64(words[j])
		}
	}
	return -1
}

// fetchTick decodes one instruction per cycle into a warp's i-buffer,
// going through the L1I; misses travel the shared memory path. The
// eligible-warp bitset finds the round-robin successor directly instead of
// scanning every warp.
func (c *Core) fetchTick() {
	if !anySet(c.fetchMask) {
		return
	}
	start := c.fetchRR + 1
	if start >= len(c.warps) {
		start = 0
	}
	idx := c.nextFetchWarp(start)
	if idx < 0 {
		return
	}
	w := &c.warps[idx]
	c.fetchRR = idx
	pcIdx := w.fetchIdx
	addr := c.wl.Program.PCAddr(pcIdx)
	line := c.icache.LineAddr(addr)
	if c.icache.Access(addr) {
		w.ibuf[w.ibufLen] = c.wl.Program.Body[pcIdx]
		w.ibufLen++
		c.hasInst[idx>>6] |= 1 << uint(idx&63)
		w.fetched++
		w.fetchIdx++
		if w.fetchIdx == len(c.wl.Program.Body) {
			w.fetchIdx = 0
		}
		if w.ibufLen == ibufCap || w.fetched >= w.total {
			c.fetchMask[idx>>6] &^= 1 << uint(idx&63)
		}
		c.fetchParkedValid = false // the warp's fetch position moved
		c.issueDirty = true        // a fresh instruction may be issuable
		return
	}
	if c.iPendingTest(line) {
		return // fill in flight; the round-robin pointer moves on
	}
	c.Stats.IMisses++
	if c.cfg.Mode != config.ModeNormal {
		lat := int64(c.cfg.FixedL1MissLatency)
		if c.cfg.Mode == config.ModeInfiniteBW {
			lat = c.idealLat(line)
		}
		c.iPendingSet(line)
		c.pending.push(c.now+max(lat, 1), line)
		return
	}
	if c.iMissQ.Full() {
		return
	}
	c.iPendingSet(line)
	c.iMissQ.Push(c.newFetch(line, mem.InstRead, 0, c.ID, w.id, c.now))
}

// drainMissQueues injects one request packet per cycle into the request
// crossbar, alternating between data and instruction misses.
func (c *Core) drainMissQueues() {
	if c.inject == nil || (c.missQ.Empty() && c.iMissQ.Empty()) {
		return
	}
	if c.injectFailF != nil &&
		c.missQ.Len() == c.injectFailMissLen && c.iMissQ.Len() == c.injectFailIMissLen &&
		c.injectStamp != nil && c.injectStamp() == c.injectFailStamp {
		// Unchanged queues (pops happen only on a success, which clears the
		// memo) pick the same head, and with no flit drained the same head
		// must bounce again.
		return
	}
	first, second := c.missQ, c.iMissQ
	if c.injectToggle {
		first, second = second, first
	}
	q := first
	f, ok := q.Peek()
	if !ok {
		q = second
		if f, ok = q.Peek(); !ok {
			return
		}
	}
	if f == c.injectFailF && c.injectStamp != nil && c.injectStamp() == c.injectFailStamp {
		return // no flit drained since the last bounce: it must bounce again
	}
	if c.inject(f) {
		q.Pop()
		c.lsuParked = false // a drained slot may unblock a bp-L2 stall
		c.injectToggle = !c.injectToggle
		c.injectFailF = nil
	} else if c.injectStamp != nil {
		c.injectFailF = f
		c.injectFailStamp = c.injectStamp()
		c.injectFailMissLen = c.missQ.Len()
		c.injectFailIMissLen = c.iMissQ.Len()
	}
}

func (c *Core) checkDone() {
	// Cheap rejection: completion is impossible before the last issue.
	if c.Stats.Issued < int64(len(c.warps))*c.wl.Program.TotalInsts() {
		return
	}
	if c.lastReady > c.now {
		return // a result is on its way; an unresolved load line is in memQ or the MSHRs
	}
	if !c.memQ.Empty() || !c.missQ.Empty() || !c.iMissQ.Empty() || !c.respFIFO.Empty() {
		return
	}
	if c.mshr.Len() != 0 || anySet(c.iPending) {
		return
	}
	c.done = true
}

// NextWake returns the earliest cycle at which the core's state can change
// on its own: now+1 when the core may make progress — or must record
// statistics that depend on downstream state — on the very next tick, a
// later cycle when it provably cannot before then, and sched.Never when it
// can never act again on its own (drained, or waiting only on a reply in
// flight). The event engine runs the core on that cycle and jumps over the
// no-op cycles before it while every warp waits on results. A later cycle
// is the earliest of an L1I fill landing (the fills' next), a parked warp's
// data hazard clearing (the sets' wake), the last result once every warp
// has issued its last instruction (the core drains), and the heavy pipe
// freeing under a replayed str-ALU stall; it can lie any distance ahead.
//
// The contract is one-sided: answering earlier than the true wake is
// always safe (a core woken early observes no event and answers again),
// answering later never is. The memory side answers the same question in
// its own clocks (icnt.Network, l2.Bank and dram.Channel NextWake).
func (c *Core) NextWake() int64 {
	if c.done {
		// A drained core ticks as a no-op and keeps no statistics.
		return sched.Never
	}
	next := c.now + 1
	// Any queued work can progress (or must keep recording occupancy and
	// stall attribution that depends on downstream state) every cycle.
	if c.issueDirty || !c.respFIFO.Empty() || !c.memQ.Empty() ||
		!c.missQ.Empty() || !c.iMissQ.Empty() {
		return next
	}
	// The fetch stage must be parked: either no warp has i-buffer space,
	// or every eligible warp is blocked on an in-flight L1I fill (in
	// which case fetchTick only rotates its round-robin pointer, a
	// rotation SkipTo replays in bulk).
	if !c.fetchParkedNow() {
		return next
	}
	wake := min(c.pending.next, c.blockedMem.wake, c.blockedALU.wake) // math.MaxInt64 = sched.Never with none
	if c.aliveCount == 0 && c.lastReady > c.now {
		wake = min(wake, c.lastReady) // checkDone waits for it
	}
	if c.lastStall == StallStrALU {
		if c.heavyBusyUntil <= c.now {
			return next // the replay path re-scans on the next tick
		}
		// The replayed str-ALU stall re-scans once the heavy pipe frees.
		wake = min(wake, c.heavyBusyUntil)
	} else if anySet(c.blockedHeavy) {
		return next // issueTick's kept defect: any result landing may re-scan
	}
	if wake == sched.Never && c.mshr.Len() == 0 && !anySet(c.iPending) {
		return next
	}
	// With nothing scheduled, queues drained and fetch parked, the only
	// thing the core is waiting on is a reply in flight: the answer is
	// Never, and the engine schedules the core the exact cycle a reply
	// reaches its ejection port.
	return wake
}

// fetchParkedNow reports (memoized) whether every eligible warp's next
// code line has a fill in flight, so a fetchTick can neither fetch nor
// schedule a new miss.
func (c *Core) fetchParkedNow() bool {
	if !c.fetchParkedValid {
		c.fetchParked = c.computeFetchParked()
		c.fetchParkedValid = true
	}
	return c.fetchParked
}

func (c *Core) computeFetchParked() bool {
	for wi, word := range c.fetchMask {
		for word != 0 {
			idx := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			w := &c.warps[idx]
			line := c.icache.LineAddr(c.wl.Program.PCAddr(w.fetchIdx))
			// A valid line would fetch; an absent, non-pending line
			// would schedule a new miss. Either is forward progress.
			if c.icache.Probe(line) == cache.Valid || !c.iPendingTest(line) {
				return false
			}
		}
	}
	return true
}

// SkipTo advances the core clock to target, bulk-accounting the skipped
// cycles exactly as the equivalent run of no-op Ticks would have: active
// cycles accrue, a replayed issue-stall classification accrues once per
// cycle, and a parked fetch stage's round-robin pointer rotates once per
// cycle through the eligible warps. The caller must have validated the
// skip with NextWake.
func (c *Core) SkipTo(target int64) {
	if c.done || target <= c.now {
		return
	}
	n := target - c.now
	c.now = target
	c.Stats.Cycles += n
	if c.lastStall >= 0 {
		c.Stats.IssueStalls[c.lastStall] += n
	}
	var eligible int64
	for _, w := range c.fetchMask {
		eligible += int64(bits.OnesCount64(w))
	}
	if eligible > 0 {
		// Each skipped fetchTick advanced fetchRR to the next eligible
		// warp before blocking on its pending fill; replay n steps.
		for steps := n % eligible; steps > 0; steps-- {
			start := c.fetchRR + 1
			if start >= len(c.warps) {
				start = 0
			}
			c.fetchRR = c.nextFetchWarp(start)
		}
	}
}

// OutstandingWork reports queue/MSHR occupancy for deadlock diagnostics.
func (c *Core) OutstandingWork() string {
	return fmt.Sprintf("core %d: memQ=%d missQ=%d iMissQ=%d mshr=%d resp=%d",
		c.ID, c.memQ.Len(), c.missQ.Len(), c.iMissQ.Len(), c.mshr.Len(), c.respFIFO.Len())
}

// MissQueueOcc reports the L1 data miss queue's occupancy and capacity —
// the per-core gauge behind the profiler's l1/miss-queue series.
func (c *Core) MissQueueOcc() (length, capacity int) {
	return c.missQ.Len(), c.missQ.Cap()
}

// MSHROcc reports the L1 MSHR file's live-entry count and capacity (0
// when unbounded, as in the ideal modes) — the per-core gauge behind the
// profiler's l1/mshr series.
func (c *Core) MSHROcc() (length, capacity int) { return c.mshr.Len(), c.mshr.Cap() }

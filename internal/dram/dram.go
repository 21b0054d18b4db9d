// Package dram models one GDDR5 channel per memory partition: an FR-FCFS
// scheduler queue, per-bank row-buffer state machines governed by the Table I
// timing constraints, a shared command bus (one command per command-clock
// cycle) and a shared data bus whose occupancy yields the paper's
// "bandwidth efficiency" metric (§IV-B1).
//
// The package also implements the paper's idealized DRAM (P_DRAM): a fixed
// latency, infinite-bandwidth pipe with no scheduler-queue limit.
package dram

import (
	"slices"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
	"gpumembw/internal/stats"
)

// AddrMap translates line addresses to DRAM coordinates. Lines interleave
// across partitions first (maximizing channel parallelism), then across
// columns within a row (so streams get row-buffer hits), then banks.
type AddrMap struct {
	lineBytes     uint64
	numPartitions uint64
	linesPerRow   uint64
	numBanks      uint64
}

// NewAddrMap builds the address map used by every channel of a configuration.
func NewAddrMap(cfg *config.Config) AddrMap {
	lpr := uint64(cfg.DRAM.RowBytes / cfg.L2.LineBytes)
	if lpr == 0 {
		lpr = 1
	}
	return AddrMap{
		lineBytes:     uint64(cfg.L2.LineBytes),
		numPartitions: uint64(cfg.DRAM.NumPartitions),
		linesPerRow:   lpr,
		numBanks:      uint64(cfg.DRAM.BanksPerChip),
	}
}

// BankRow returns the bank and row of addr within its partition.
func (m AddrMap) BankRow(addr uint64) (bank int, row int64) {
	idx := addr / m.lineBytes / m.numPartitions
	bank = int(idx / m.linesPerRow % m.numBanks)
	row = int64(idx / (m.linesPerRow * m.numBanks))
	return bank, row
}

type bankState struct {
	openRow  int64 // -1 when precharged
	actReady int64 // earliest cycle an ACTIVATE may issue
	casReady int64 // earliest cycle a column command may issue
	preReady int64 // earliest cycle a PRECHARGE may issue
}

type inflight struct {
	fetch *mem.Fetch
	done  int64 // command-clock cycle when the data burst completes
}

// request is one scheduler-queue entry: the fetch with its DRAM coordinates
// and direction beside it, so its gate, which each FR-FCFS scan works out
// for every queued request, reads the queue and nothing else.
type request struct {
	fetch *mem.Fetch
	row   int64
	bank  int32
	read  bool
}

// Stats aggregates per-channel DRAM statistics.
type Stats struct {
	Reads          int64
	Writes         int64
	Activates      int64
	Precharges     int64
	BusBusyCycles  int64 // command-clock cycles the data bus carried data
	PendingCycles  int64 // cycles with work queued or in flight
	SchedOccupancy stats.OccupancyHist
}

// Channel is one memory partition's DRAM channel.
type Channel struct {
	cfg      *config.Config
	amap     AddrMap
	sched    []request // the FR-FCFS scheduler queue, oldest first
	schedCap int       // its bound; 0 when unbounded
	ret      *mem.Queue[*mem.Fetch]
	banks    []bankState

	now          int64 // command-clock cycle count
	busBusyUntil int64 // data bus reserved through this cycle (exclusive)
	nextCAS      int64 // earliest next column command (tCCD)
	nextAct      int64 // earliest next ACTIVATE on any bank (tRRD)
	readAfter    int64 // earliest read CAS after a write burst (tCDLR)
	burst        int64 // data-bus cycles per line
	retReserved  int   // return-queue slots promised to in-flight reads

	inflight []inflight

	// memo is the earliest command cycle at which a scan can issue: the
	// least gate over the queue (sched.Never when empty) and never earlier
	// than the tick after the last scan. Gates move only when a command
	// issues, so the memo stays exact until then, except that a Push lowers
	// it to the newcomer's gate and a pop that frees a slot of a full return
	// queue, the one gate no command opens, resets it while requests wait.
	memo int64

	// Infinite mode (P_DRAM) state: responses release after a fixed delay.
	infinite    bool
	infiniteLat int64 // in command-clock cycles

	pool *mem.FetchPool // optional freelist for fetches that die here

	Stats Stats
}

// NewChannel builds the DRAM channel for partition id. Every channel of a
// configuration is alike, so id goes unused.
func NewChannel(id int, cfg *config.Config) *Channel {
	ch := &Channel{
		cfg:   cfg,
		amap:  NewAddrMap(cfg),
		burst: int64(cfg.DRAMBurstCycles()),
		memo:  sched.Never,
	}
	if cfg.DRAM.Infinite {
		ch.infinite = true
		// InfiniteLatency is expressed in core cycles; convert.
		ch.infiniteLat = int64(float64(cfg.DRAM.InfiniteLatency) * cfg.DRAM.ClockMHz / cfg.Core.ClockMHz)
		ch.ret = mem.NewQueue[*mem.Fetch](0)
		return ch
	}
	ch.schedCap = cfg.DRAM.SchedQueueEntries
	ch.sched = make([]request, 0, ch.schedCap)
	ch.ret = mem.NewQueue[*mem.Fetch](cfg.DRAM.ReturnQueueEntries)
	ch.banks = make([]bankState, cfg.DRAM.BanksPerChip)
	for i := range ch.banks {
		ch.banks[i].openRow = -1
	}
	return ch
}

// SetFetchPool wires the freelist that receives fetches completing their
// life at the DRAM (stores and write-backs). A nil pool is valid.
func (c *Channel) SetFetchPool(p *mem.FetchPool) { c.pool = p }

// Full reports whether the scheduler queue cannot accept another request.
// A full scheduler queue is what backs up the L2 miss queue (bp-DRAM).
func (c *Channel) Full() bool { return c.schedCap > 0 && len(c.sched) >= c.schedCap }

// Idle reports whether the channel holds no queued, in-flight or
// unconsumed work — used by drain checks.
func (c *Channel) Idle() bool {
	return len(c.sched) == 0 && len(c.inflight) == 0 && c.ret.Empty()
}

// Push enqueues a request. It returns false when the scheduler queue is
// full. In infinite mode the request completes after the fixed latency.
func (c *Channel) Push(f *mem.Fetch) bool {
	if c.infinite {
		if f.Type == mem.DataRead || f.Type == mem.InstRead {
			c.inflight = append(c.inflight, inflight{fetch: f, done: c.now + c.infiniteLat})
			c.retReserved++ // as at a CAS; the return queue is unbounded
			c.Stats.Reads++
		} else {
			c.Stats.Writes++
			c.pool.Put(f) // stores are fire-and-forget
		}
		return true
	}
	if c.Full() {
		return false
	}
	bank, row := c.amap.BankRow(f.Addr)
	r := request{fetch: f, row: row, bank: int32(bank), read: f.Type.NeedsReply()}
	c.sched = append(c.sched, r)
	g, _ := c.gate(r)
	c.memo = min(c.memo, g)
	return true
}

// PopResponse removes the oldest completed read, if any.
func (c *Channel) PopResponse() (*mem.Fetch, bool) {
	full := c.retFull()
	f, ok := c.ret.Pop()
	if ok && full && len(c.sched) > 0 {
		c.memo = 0 // the freed slot opens the gate of every queued read
	}
	return f, ok
}

// retFull reports whether every return-queue slot is taken or promised to
// an in-flight read, so no read CAS may issue until a pop.
func (c *Channel) retFull() bool {
	return c.ret.Cap() > 0 && c.ret.Len()+c.retReserved >= c.ret.Cap()
}

// NextWake returns the earliest command-clock tick (the value now
// reaches in that Tick) at which Tick can do anything but replay frozen
// accounting: the next command issuing (the memo), the oldest in-flight
// burst completing, or the data bus falling idle (BusBusy, which the
// profiler samples, flips there). It is sched.Never when only a Push or a
// PopResponse can change anything — an idle channel, or one whose every
// queued request waits on a return-queue slot. Early is harmless, late
// never happens.
func (c *Channel) NextWake() int64 {
	wake := c.memo // sched.Never in P_DRAM mode
	if len(c.inflight) > 0 {
		// Bursts complete in issue order: each CAS reserves the data bus
		// after the one before it, and P_DRAM's delay is a constant.
		wake = min(wake, c.inflight[0].done)
	}
	if c.busBusyUntil > c.now {
		wake = min(wake, c.busBusyUntil)
	}
	return max(wake, c.now+1)
}

// SkipTo replays the frozen Ticks up to tick in closed form — the clock,
// the pending and bus-busy cycle counts and both occupancy histograms
// advance exactly as Ticks that retire no burst and scan nothing would
// leave them. At or behind the clock it does nothing. Valid while the
// channel is frozen: across any span that ends before NextWake().
func (c *Channel) SkipTo(tick int64) {
	now, n := c.now, tick-c.now
	if n <= 0 {
		return
	}
	c.now = tick
	if c.infinite || c.Idle() {
		return
	}
	if len(c.sched) > 0 || len(c.inflight) > 0 {
		c.Stats.PendingCycles += n
		c.Stats.BusBusyCycles += min(max(c.busBusyUntil-now-1, 0), n)
	}
	c.Stats.SchedOccupancy.ObserveN(len(c.sched), c.schedCap, n)
}

// PeekResponse returns the oldest completed read without removing it.
func (c *Channel) PeekResponse() (*mem.Fetch, bool) { return c.ret.Peek() }

// Tick advances the channel by one command-clock cycle.
func (c *Channel) Tick() {
	c.now++
	if c.infinite {
		c.completeBursts()
		return
	}
	if c.Idle() {
		// Fully idle: every statement below is a no-op (no bursts to
		// retire, no pending work to count, occupancy observations of
		// empty queues are outside their usage lifetime).
		return
	}

	c.completeBursts()

	busy := len(c.sched) > 0 || len(c.inflight) > 0
	if busy {
		c.Stats.PendingCycles++
		if c.busBusyUntil > c.now {
			c.Stats.BusBusyCycles++
		}
	}
	c.Stats.SchedOccupancy.Observe(len(c.sched), c.schedCap)

	if c.now < c.memo {
		return // no gate opens before the memo
	}
	if i, cas := c.scan(); i >= 0 {
		c.issue(i, cas)
		c.scan() // the command moved the gates: the memo is their new least
	}
	c.memo = max(c.memo, c.now+1)
}

// completeBursts retires the finished reads of either model into the
// return queue, each into the slot it reserved when it was issued.
func (c *Channel) completeBursts() {
	n := 0
	for _, fl := range c.inflight {
		if fl.done <= c.now {
			if !c.ret.Push(fl.fetch) {
				// Cannot happen: the slot was reserved at issue.
				panic("dram: return queue overflow despite reservation")
			}
			c.retReserved-- // reservation converts into a real slot
		} else {
			c.inflight[n] = fl
			n++
		}
	}
	c.inflight = c.inflight[:n]
}

// gate returns the earliest command cycle at which request r's next
// command clears every Table I gate, and whether that command is a column
// access. A row hit needs tCCD, its bank's tRCD and the data bus free when
// its burst starts; a read also needs tCDLR and a return-queue slot, which
// only a pop can free (sched.Never until then). Any other request needs
// its bank precharged (tRAS, tWR) or its row activated (tRC, tRRD).
func (c *Channel) gate(r request) (int64, bool) {
	t := &c.cfg.DRAM.Timing
	b := &c.banks[r.bank]
	switch {
	case b.openRow == r.row && !r.read:
		return max(c.nextCAS, b.casReady, c.busBusyUntil-int64(t.WL)), true
	case b.openRow == r.row && c.retFull():
		return sched.Never, true
	case b.openRow == r.row:
		return max(c.nextCAS, b.casReady, c.readAfter, c.busBusyUntil-int64(t.CL)), true
	case b.openRow >= 0:
		return b.preReady, false
	}
	return max(b.actReady, c.nextAct), false
}

// scan is FR-FCFS: it returns the queue index of the command that issues
// now — the oldest row hit whose gate has opened, else the oldest request
// whose row command's has — or -1, and leaves the least gate it saw in the
// memo. A ready row hit ends the walk early; its gate keeps the memo due.
func (c *Channel) scan() (pick int, cas bool) {
	pick, c.memo = -1, sched.Never
	for i, r := range c.sched {
		g, hit := c.gate(r)
		c.memo = min(c.memo, g)
		if g <= c.now && (pick < 0 || hit) {
			pick, cas = i, hit
			if hit {
				break
			}
		}
	}
	return pick, cas
}

// issue applies the command scan picked for queue entry i: the column
// access of a row hit, else a precharge of the bank's open row, else an
// activation of the request's row.
func (c *Channel) issue(i int, cas bool) {
	t := &c.cfg.DRAM.Timing
	r := c.sched[i]
	b := &c.banks[r.bank]
	switch {
	case cas:
		c.sched = slices.Delete(c.sched, i, i+1)
		dataEnd := c.now + int64(t.WL) + c.burst
		if r.read {
			dataEnd = c.now + int64(t.CL) + c.burst
		}
		c.busBusyUntil = dataEnd
		c.nextCAS = c.now + int64(t.CCD)
		if r.read {
			c.Stats.Reads++
			c.retReserved++ // the burst always has a slot to retire into
			// CtrlLatency models the controller/PHY pipeline between the
			// burst completing and the fill reaching the L2.
			c.inflight = append(c.inflight, inflight{fetch: r.fetch, done: dataEnd + int64(c.cfg.DRAM.CtrlLatency)})
		} else {
			c.Stats.Writes++
			c.readAfter = dataEnd + int64(t.CDLR)
			b.preReady = max(b.preReady, dataEnd+int64(t.WR))
			c.pool.Put(r.fetch) // the write is absorbed; no response travels back
		}
	case b.openRow >= 0:
		b.openRow = -1
		b.actReady = max(b.actReady, c.now+int64(t.RP))
		c.Stats.Precharges++
	default:
		b.openRow = r.row
		b.casReady = c.now + int64(t.RCD)
		b.preReady = c.now + int64(t.RAS)
		b.actReady = c.now + int64(t.RC)
		c.nextAct = c.now + int64(t.RRD)
		c.Stats.Activates++
	}
}

// BusBusy reports whether a data burst occupies the channel's bus this
// command cycle — the profiler's dram/bus-busy gauge.
func (c *Channel) BusBusy() bool { return c.busBusyUntil > c.now }

// OpenRows counts banks holding a row open — the numerator of the
// profiler's dram/row-buffer gauge (capacity is DRAM.BanksPerChip).
func (c *Channel) OpenRows() int {
	open := 0
	for i := range c.banks {
		if c.banks[i].openRow >= 0 {
			open++
		}
	}
	return open
}

// SchedOcc reports the FR-FCFS scheduler queue's occupancy and capacity
// — the profiler's dram/sched-queue gauge.
func (c *Channel) SchedOcc() (length, capacity int) {
	return len(c.sched), c.schedCap
}

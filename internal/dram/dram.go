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
	"math"
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
// and direction beside it, so the FR-FCFS scans, which re-examine every
// queued request every command cycle, read the queue and nothing else.
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

	// scanIdleUntil memoizes a failed FR-FCFS scan: before this command
	// cycle no queued request can newly become issuable, because the only
	// things that change between cycles are the clock (scanWake collects
	// the earliest cycle a blocking time gate opens) and external events —
	// a Push or a response pop — which clear the memo. Issued commands
	// re-scan the very next cycle (the memo is only set when nothing
	// issues).
	scanIdleUntil int64
	scanWake      int64

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
	c.scanIdleUntil = 0 // a new request may be issuable immediately
	if c.Full() {
		return false
	}
	bank, row := c.amap.BankRow(f.Addr)
	c.sched = append(c.sched, request{fetch: f, row: row, bank: int32(bank), read: f.Type.NeedsReply()})
	return true
}

// PopResponse removes the oldest completed read, if any.
func (c *Channel) PopResponse() (*mem.Fetch, bool) {
	c.scanIdleUntil = 0 // a freed return slot may unblock a read CAS
	return c.ret.Pop()
}

// NextWake returns the earliest command-clock tick (the value now
// reaches in that Tick) at which Tick can do anything but replay frozen
// accounting: the oldest in-flight burst completing, the failed-scan memo
// expiring (the very next tick when no memo stands), or the data bus
// falling idle (BusBusy, which the profiler samples, flips there). It is
// sched.Never when only a Push or a PopResponse can change anything — an
// idle channel, or one whose every queued request waits on a return-queue
// slot. Early is harmless, late never happens.
func (c *Channel) NextWake() int64 {
	if len(c.sched) > 0 && c.scanIdleUntil <= c.now {
		return c.now + 1 // no memo stands: the next tick must scan
	}
	wake := sched.Never
	if len(c.inflight) > 0 {
		// Bursts complete in issue order: each CAS reserves the data bus
		// after the one before it, and P_DRAM's delay is a constant.
		wake = c.inflight[0].done
	}
	if !c.infinite {
		if len(c.sched) > 0 {
			wake = min(wake, c.scanIdleUntil)
		}
		if c.busBusyUntil > c.now {
			wake = min(wake, c.busBusyUntil)
		}
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

	if len(c.sched) == 0 {
		return
	}
	if c.now < c.scanIdleUntil {
		// A previous scan proved nothing can issue before scanIdleUntil.
		return
	}
	// FR-FCFS: first ready column access (row hit), else oldest request
	// drives a row activation/precharge. One command per cycle.
	c.scanWake = math.MaxInt64
	if c.issueReadyCAS() {
		return
	}
	if c.issueRowCommand() {
		return
	}
	c.scanIdleUntil = c.scanWake
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

// issueReadyCAS scans the scheduler queue oldest-first for a request whose
// row is open and whose column command can issue now. Returns true if a
// command was issued.
func (c *Channel) issueReadyCAS() bool {
	if c.nextCAS > c.now {
		c.wakeAt(c.nextCAS)
		return false
	}
	t := &c.cfg.DRAM.Timing
	for i, r := range c.sched {
		b := &c.banks[r.bank]
		if b.openRow != r.row {
			continue // only a row command (an issue) can change this
		}
		if b.casReady > c.now {
			c.wakeAt(b.casReady)
			continue
		}
		if r.read {
			if c.readAfter > c.now {
				c.wakeAt(c.readAfter)
				continue
			}
			// Reserve a return-queue slot so the completed burst can
			// always retire. A full queue only frees on a response pop,
			// which clears the scan memo.
			if c.ret.Cap() > 0 && c.ret.Len()+c.retReserved >= c.ret.Cap() {
				continue
			}
		}
		// Data bus must be free when this burst starts.
		var dataStart int64
		if r.read {
			dataStart = c.now + int64(t.CL)
		} else {
			dataStart = c.now + int64(t.WL)
		}
		if c.busBusyUntil > dataStart {
			c.wakeAt(c.busBusyUntil - (dataStart - c.now))
			continue
		}
		c.sched = slices.Delete(c.sched, i, i+1)
		dataEnd := dataStart + c.burst
		c.busBusyUntil = dataEnd
		c.nextCAS = c.now + int64(t.CCD)
		if r.read {
			c.Stats.Reads++
			c.retReserved++
			// CtrlLatency models the controller/PHY pipeline between the
			// burst completing and the fill reaching the L2.
			c.inflight = append(c.inflight, inflight{fetch: r.fetch, done: dataEnd + int64(c.cfg.DRAM.CtrlLatency)})
		} else {
			c.Stats.Writes++
			c.readAfter = dataEnd + int64(t.CDLR)
			b.preReady = max(b.preReady, dataEnd+int64(t.WR))
			c.pool.Put(r.fetch) // the write is absorbed; no response travels back
		}
		return true
	}
	return false
}

// issueRowCommand advances the oldest request that needs its row opened:
// precharge a conflicting open row, or activate the needed row. It reports
// whether a command was issued.
func (c *Channel) issueRowCommand() bool {
	t := &c.cfg.DRAM.Timing
	for _, r := range c.sched {
		b := &c.banks[r.bank]
		if b.openRow == r.row {
			continue // waiting on CAS timing only
		}
		if b.openRow >= 0 {
			if b.preReady <= c.now {
				b.openRow = -1
				b.actReady = max(b.actReady, c.now+int64(t.RP))
				c.Stats.Precharges++
				return true
			}
			c.wakeAt(b.preReady)
			continue
		}
		if b.actReady <= c.now && c.nextAct <= c.now {
			b.openRow = r.row
			b.casReady = c.now + int64(t.RCD)
			b.preReady = c.now + int64(t.RAS)
			b.actReady = c.now + int64(t.RC)
			c.nextAct = c.now + int64(t.RRD)
			c.Stats.Activates++
			return true
		}
		c.wakeAt(max(b.actReady, c.nextAct))
	}
	return false
}

// wakeAt lowers the pending scan's earliest time-gate opening.
func (c *Channel) wakeAt(cycle int64) {
	if cycle < c.scanWake {
		c.scanWake = cycle
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

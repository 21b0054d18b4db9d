// Package core assembles the complete simulated GPU of Fig. 2 and implements
// the paper's measurement methodology: SIMT cores behind private L1s, two
// crossbar networks, a banked shared L2 organized into memory partitions,
// and GDDR5 channels — each in its own clock domain (core 1.4 GHz,
// crossbar/L2 700 MHz, DRAM command clock 924 MHz).
//
// This package is the reproduction's primary contribution: it runs a
// workload against an arbitrary config.Config and emits Metrics containing
// every quantity the paper plots — issue-stall taxonomy (Fig. 7), L1/L2
// stall attribution (Figs. 8–9), queue-occupancy histograms (Figs. 4–5),
// average memory and L2-hit latencies (Fig. 1), DRAM bandwidth efficiency
// (§IV-B1) and IPC for the design-space studies (Figs. 10–12).
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"gpumembw/internal/cache"
	"gpumembw/internal/config"
	"gpumembw/internal/icnt"
	"gpumembw/internal/l2"
	"gpumembw/internal/mem"
	"gpumembw/internal/obsv"
	"gpumembw/internal/sched"
	"gpumembw/internal/smcore"
)

// ErrLivelock reports that the simulator stopped making forward progress:
// no instruction issued for longer than any valid stall of the
// configuration can last (the window New derives), which always indicates
// a modelling bug.
var ErrLivelock = errors.New("core: no forward progress")

// GPU is one fully assembled simulated GPU.
type GPU struct {
	cfg config.Config
	wl  *smcore.Workload

	cores []*smcore.Core
	req   *icnt.Network
	reply *icnt.Network
	parts []*l2.Partition
	banks []*l2.Bank // flat view indexed by global bank ID (request-network dst)
	pool  *mem.FetchPool

	idealL2 *cache.TagArray // functional L2 for ModeInfiniteBW

	cycle     int64
	fetchID   uint64
	truncated bool

	// engine selects the simulation loop (WithEngine); stats counts what
	// it did (EngineStats).
	engine Engine
	stats  EngineStats

	// livelockWindow is how many issue-free cycles both engines tolerate
	// before reporting ErrLivelock (livelockWindow).
	livelockWindow int64

	// wheel is the core clock's wake array, built by runEvent. icnt and
	// dram are the memory side's clocks, the 700 MHz and DRAM command
	// domains (ticking in ModeNormal only): both engines step them, and
	// only the event engine reads their wake arrays.
	wheel      *sched.Wheel
	icnt, dram clock

	// prof, when attached, receives one hierarchy gauge vector per core
	// cycle. nil (the default) keeps the hot path at a single pointer
	// compare per cycle — profiling is strictly opt-in per job.
	prof     *obsv.Profiler
	gaugeBuf []float64
}

// New assembles a GPU for the given configuration and workload. Options
// (WithEngine) tune how the GPU simulates, never what it produces.
func New(cfg config.Config, wl *smcore.Workload, opts ...Option) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl == nil || len(wl.Program.Body) == 0 || wl.Program.Iters <= 0 {
		return nil, fmt.Errorf("core: empty workload")
	}
	if wl.Addr == nil {
		return nil, fmt.Errorf("core: workload %q has no address generator", wl.Name)
	}
	g := &GPU{cfg: cfg, wl: wl, pool: &mem.FetchPool{}, engine: EngineEvent}
	g.icnt.min, g.dram.min = sched.Never, sched.Never // no memory-side units, no ticks, outside ModeNormal
	for _, opt := range opts {
		opt(g)
	}
	g.livelockWindow = livelockWindow(&g.cfg)

	newFetch := func(addr uint64, typ mem.AccessType, size, coreID, warpID int, issueCycle int64) *mem.Fetch {
		g.fetchID++
		f := g.pool.Get()
		*f = mem.Fetch{
			ID: g.fetchID, Addr: addr, Type: typ, SizeBytes: size,
			CoreID: coreID, WarpID: warpID, IssueCycle: issueCycle,
		}
		f.BankID = g.bankOf(addr)
		return f
	}

	for i := 0; i < cfg.Core.NumCores; i++ {
		c := smcore.NewCore(i, &g.cfg, wl, newFetch)
		c.SetFetchPool(g.pool)
		g.cores = append(g.cores, c)
	}

	switch cfg.Mode {
	case config.ModeNormal:
		// Every L2 bank owns its own crossbar port (§VII-A: "each L2 bank
		// has an independent port to the crossbar"), so scaling the bank
		// count also scales interconnect ports.
		g.req = icnt.NewNetwork("request", cfg.Core.NumCores, cfg.L2.NumBanks,
			cfg.Icnt.ReqFlitBytes, cfg.Icnt.InputBufFlits, cfg.Icnt.OutputBufPackets, cfg.Icnt.LatencyCycles)
		g.reply = icnt.NewNetwork("reply", cfg.L2.NumBanks, cfg.Core.NumCores,
			cfg.Icnt.ReplyFlitBytes, cfg.Icnt.InputBufFlits, cfg.Icnt.OutputBufPackets, cfg.Icnt.LatencyCycles)
		for p := 0; p < cfg.DRAM.NumPartitions; p++ {
			part := l2.NewPartition(p, &g.cfg)
			part.SetFetchPool(g.pool)
			g.parts = append(g.parts, part)
		}
		g.banks = make([]*l2.Bank, cfg.L2.NumBanks)
		for _, part := range g.parts {
			for _, b := range part.Banks {
				g.banks[b.ID] = b
			}
		}
		g.icnt = newClock(cfg.Icnt.ClockMHz/cfg.Core.ClockMHz, uPart0+cfg.DRAM.NumPartitions)
		g.dram = newClock(cfg.DRAM.ClockMHz/cfg.Core.ClockMHz, cfg.DRAM.NumPartitions)
		for _, c := range g.cores {
			c.SetInject(func(f *mem.Fetch) bool {
				g.req.SkipTo(g.icnt.tick)
				if !g.req.Inject(f, f.CoreID, f.BankID, f.RequestBytes()) {
					return false
				}
				g.icnt.set(uReq, g.req.NextWake())
				return true
			})
			src := c.ID
			c.SetInjectStamp(func() uint64 { return g.req.DrainStamp(src) })
		}
	case config.ModeInfiniteBW:
		g.idealL2 = cache.NewTagArray(
			cfg.L2.SizeBytes/cfg.L2.LineBytes/cfg.L2.Ways, cfg.L2.Ways, cfg.L2.LineBytes, 1)
		for _, c := range g.cores {
			c.SetIdealLatency(g.idealLatency)
		}
	}
	return g, nil
}

// bankOf maps a line address to its global L2 bank: lines interleave across
// banks, and bank→partition assignment keeps consecutive lines on distinct
// partitions (matching dram.AddrMap).
func (g *GPU) bankOf(addr uint64) int {
	lineIdx := addr / uint64(g.cfg.L2.LineBytes)
	return int(lineIdx % uint64(g.cfg.L2.NumBanks))
}

// idealLatency is the P∞ oracle: a functional L2 decides between the
// minimum L2 (120-cycle) and DRAM (220-cycle) latencies.
func (g *GPU) idealLatency(addr uint64) int64 {
	if g.idealL2.Access(addr) {
		return int64(g.cfg.IdealL2HitLatency)
	}
	g.idealL2.Fill(addr)
	return int64(g.cfg.IdealMemLatency)
}

// Run simulates until every core drains, MaxCycles elapses, or progress
// stops. It returns the collected metrics. The engine selects how the
// simulation advances — the event engine, or the reference tick loop
// under test — never what it produces: both engines emit byte-identical
// metrics and profiles for every cell; fixed-latency cells run core by core.
func (g *GPU) Run() (Metrics, error) {
	switch {
	case g.engine == EngineTick:
		return g.runTick()
	case g.cfg.Mode == config.ModeFixedL1MissLat:
		return g.runApart()
	}
	return g.runEvent()
}

// runTick is the reference tick-everything loop: every unit of the
// hierarchy advances every cycle, with no skip heuristics of any kind.
// It is the oracle the event-engine parity tests compare against
// (WithEngine(EngineTick)); no shipped binary selects it.
func (g *GPU) runTick() (Metrics, error) {
	normal := g.cfg.Mode == config.ModeNormal
	var lastProgress int64 // last cycle the instruction count moved

	for {
		g.cycle++

		if normal {
			g.tickMemory()
		}

		done := true
		for _, c := range g.cores {
			if normal && c.CanAcceptResponse() {
				if pkt, ok := g.reply.Pop(c.ID); ok {
					c.AcceptResponse(pkt.Fetch)
					g.reply.Release(pkt)
				}
			}
			before := c.Stats.Issued
			c.Tick()
			if c.Stats.Issued != before {
				lastProgress = g.cycle
			}
			if !c.Done() {
				done = false
			}
		}

		if g.prof != nil {
			g.prof.Record(g.sampleGauges())
		}

		if done {
			break
		}
		if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
			g.truncated = true
			break
		}
		if g.cycle-lastProgress > g.livelockWindow {
			return g.collect(), g.livelockErr(lastProgress)
		}
	}
	return g.collect(), nil
}

// tickMemory advances the memory side one core cycle, every unit on every
// tick: the 700 MHz domain's ticks (tickIcntDomain), then the DRAM
// channels'.
func (g *GPU) tickMemory() {
	var to int64
	for g.icnt.acc, to = g.icnt.next(); g.icnt.tick < to; {
		g.icnt.tick++
		g.tickIcntDomain()
	}
	for g.dram.acc, to = g.dram.next(); g.dram.tick < to; {
		g.dram.tick++
		for _, p := range g.parts {
			p.DRAM.Tick()
		}
	}
}

// tickIcntDomain advances the 700 MHz domain one cycle: both crossbars and
// every memory partition, including the partition↔network hand-offs. It is
// the tick engine's half of the order the event engine's tickIcntDue
// visits due units in.
func (g *GPU) tickIcntDomain() {
	g.req.Tick()
	g.reply.Tick()
	// Request ejection → L2 bank access queues, for occupied outputs only.
	// Ejections touch nothing a partition tick reads outside its own bank,
	// so hoisting them all ahead of the partition loop (in ascending bank
	// order, which preserves each partition's internal bank order) leaves
	// every observable byte unchanged.
	for wi, word := range g.req.OccupiedDsts() {
		for word != 0 {
			d := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			bank := g.banks[d]
			if pkt, ok := g.req.Peek(d); ok && bank.CanAccept() {
				g.req.Pop(d)
				bank.Accept(pkt.Fetch)
				g.req.Release(pkt)
			}
		}
	}
	for _, p := range g.parts {
		p.TickL2()
		for _, bank := range p.Banks {
			// L2 response queue → reply-network injection.
			if f, ok := bank.PeekResponse(); ok {
				if g.reply.CanInject(bank.ID, f.ReplyBytes()) {
					g.reply.Inject(f, bank.ID, f.CoreID, f.ReplyBytes())
					bank.PopResponse()
				}
			}
		}
	}
}

// AttachProfiler wires a bottleneck profiler into the run: from the next
// cycle on, the GPU records one normalized gauge vector per core cycle
// (bulk-accounted across event-engine jumps). Attach before Run; call
// Snapshot on the returned profiler after Run completes. Ideal-memory
// modes carry only the L1 gauges — the rest of the hierarchy does not
// exist there.
func (g *GPU) AttachProfiler() *obsv.Profiler {
	defs := []obsv.GaugeDef{
		{Level: "l1", Gauge: "miss-queue"},
		{Level: "l1", Gauge: "mshr"},
	}
	if g.cfg.Mode == config.ModeNormal {
		defs = append(defs,
			obsv.GaugeDef{Level: "xbar-req", Gauge: "ports-busy"},
			obsv.GaugeDef{Level: "xbar-req", Gauge: "ports-contended"},
			obsv.GaugeDef{Level: "l2", Gauge: "bank-busy"},
			obsv.GaugeDef{Level: "l2", Gauge: "mshr"},
			obsv.GaugeDef{Level: "l2", Gauge: "miss-queue"},
			obsv.GaugeDef{Level: "xbar-reply", Gauge: "ports-busy"},
			obsv.GaugeDef{Level: "xbar-reply", Gauge: "ports-contended"},
			obsv.GaugeDef{Level: "dram", Gauge: "sched-queue"},
			obsv.GaugeDef{Level: "dram", Gauge: "bus-busy"},
			obsv.GaugeDef{Level: "dram", Gauge: "row-buffer"},
		)
	}
	g.prof = obsv.NewProfiler(defs)
	g.gaugeBuf = make([]float64, len(defs))
	return g.prof
}

// frac divides defensively: unbounded or zero-capacity structures report
// zero occupancy rather than dividing by zero.
func frac(n, d int) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// sampleGauges fills gaugeBuf with the current cycle's normalized
// per-level occupancies, in AttachProfiler's definition order.
func (g *GPU) sampleGauges() []float64 {
	b := g.gaugeBuf
	var l1mq, l1mshr float64
	for _, c := range g.cores {
		l, cp := c.MissQueueOcc()
		l1mq += frac(l, cp)
		l1mshr += frac(c.MSHROcc())
	}
	nc := float64(len(g.cores))
	b[0], b[1] = l1mq/nc, l1mshr/nc
	if len(b) == 2 {
		return b
	}
	busy, cont, tot := g.req.PortOcc()
	b[2], b[3] = frac(busy, tot), frac(cont, tot)
	var bankBusy, l2mshr, l2mq, banks float64
	var dq, bus, rows float64
	for _, p := range g.parts {
		for _, bk := range p.Banks {
			banks++
			if bk.Busy() {
				bankBusy++
			}
			l2mshr += frac(bk.MSHROcc(), g.cfg.L2.MSHREntries)
			l, cp := bk.MissQueueOcc()
			l2mq += frac(l, cp)
		}
		l, cp := p.DRAM.SchedOcc()
		dq += frac(l, cp)
		if p.DRAM.BusBusy() {
			bus++
		}
		rows += frac(p.DRAM.OpenRows(), g.cfg.DRAM.BanksPerChip)
	}
	b[4], b[5], b[6] = bankBusy/banks, l2mshr/banks, l2mq/banks
	busy, cont, tot = g.reply.PortOcc()
	b[7], b[8] = frac(busy, tot), frac(cont, tot)
	np := float64(len(g.parts))
	b[9], b[10], b[11] = dq/np, bus/np, rows/np
	return b
}

// Cores exposes the simulated cores (read-only use by experiments).
func (g *GPU) Cores() []*smcore.Core { return g.cores }

// Partitions exposes the memory partitions (read-only use by experiments).
func (g *GPU) Partitions() []*l2.Partition { return g.parts }

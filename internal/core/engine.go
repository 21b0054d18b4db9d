package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gpumembw/internal/config"
	"gpumembw/internal/sched"
)

// Engine selects the simulation loop that advances a GPU. The choice is
// pure mechanics: both engines produce byte-identical metrics and
// profiles for every cell (the parity tests and the CI determinism job
// enforce it), so the engine is deliberately NOT part of the cell
// identity and never bumps SimVersion. No shipped binary selects one:
// everything runs EngineEvent, and EngineTick is reachable only through
// WithEngine, for the tests that hold the event engine to it.
type Engine uint8

const (
	// EngineEvent is the event engine: every core, crossbar, L2 bank and
	// DRAM channel reports its next-wake cycle (NextWake, each in its own
	// clock), runs only on the cycles that reach it, and the loop jumps the
	// spans in which none does. What New builds unless told
	// otherwise.
	EngineEvent Engine = iota
	// EngineTick is the reference tick-everything loop — slow, simple,
	// and skip-free: the oracle the parity tests compare against.
	EngineTick
)

// Option configures a GPU at construction (New).
type Option func(*GPU)

// WithEngine selects the simulation engine for one GPU. Only parity
// tests and the benchmark's traced run pass EngineTick.
func WithEngine(e Engine) Option { return func(g *GPU) { g.engine = e } }

// EngineStats counts what the engine did during Run: how often and how far it
// jumped (a fixed-latency cell, run core by core, counts each core's spans),
// and per unit class how many ticks it executed (TicksRun) out of the ticks
// its clock went through (TicksElapsed, summed over its units; equal under
// EngineTick, which never jumps). The counts repeat exactly and describe the
// mechanics, never the result, so they sit outside Metrics and cell identity.
type EngineStats struct {
	Jumps         int64 // bulk-replayed spans
	SkippedCycles int64 // core cycles inside them

	Core, Xbar, L2, DRAM ClassTicks
}

// ClassTicks is one unit class's share of EngineStats.
type ClassTicks struct {
	TicksRun, TicksElapsed int64
}

// EngineStats returns the engine's counts for the last Run: TicksElapsed
// from where the core and memory clocks stand, and under EngineTick, which
// runs every unit on every tick of its clock, TicksRun equal to it.
func (g *GPU) EngineStats() EngineStats {
	s := g.stats
	s.Core.TicksElapsed = g.cycle * int64(len(g.cores))
	s.Xbar.TicksElapsed = g.icnt.tick * 2
	s.L2.TicksElapsed = g.icnt.tick * int64(len(g.banks))
	s.DRAM.TicksElapsed = g.dram.tick * int64(len(g.parts))
	if g.engine == EngineTick {
		s.Core.TicksRun, s.Xbar.TicksRun = s.Core.TicksElapsed, s.Xbar.TicksElapsed
		s.L2.TicksRun, s.DRAM.TicksRun = s.L2.TicksElapsed, s.DRAM.TicksElapsed
	}
	return s
}

// livelockWindow is how many issue-free cycles a run of cfg may show
// before the engines call it wedged: 200,000 — beyond any queueing delay
// the hierarchy's bounded queues can build at sane latencies — plus one
// round trip through every pipeline latency live in the mode, each of
// which Validate admits up to 2^20 cycles. A 300,000-cycle DRAM controller
// is slow, not livelocked.
func livelockWindow(cfg *config.Config) int64 {
	inCore := func(cycles int, clockMHz float64) int64 {
		return int64(math.Ceil(float64(cycles) * cfg.Core.ClockMHz / clockMHz))
	}
	trip := int64(cfg.Core.ALULatency) + int64(cfg.L1.HitLatency)
	switch cfg.Mode {
	case config.ModeFixedL1MissLat:
		trip += int64(cfg.FixedL1MissLatency)
	case config.ModeInfiniteBW:
		trip += int64(max(cfg.IdealL2HitLatency, cfg.IdealMemLatency))
	case config.ModeNormal:
		trip += inCore(2*cfg.Icnt.LatencyCycles+cfg.L2.TagLatency, cfg.Icnt.ClockMHz)
		if d := &cfg.DRAM; d.Infinite {
			trip += int64(d.InfiniteLatency)
		} else {
			t := &d.Timing
			trip += inCore(d.CtrlLatency+t.CCD+t.RRD+t.RCD+t.RAS+t.RP+t.RC+t.CL+t.WL+t.CDLR+t.WR, d.ClockMHz)
		}
	}
	return 200_000 + trip
}

// clock is one memory-side clock domain, stated once: the accumulator that
// turns core cycles into its ticks, the ticks elapsed, and the domain's
// wake array, one entry per unit of Fig. 2's hardware: the two crossbars
// and the memory partitions at 700 MHz, the DRAM channels at the command
// clock. Both engines advance it through next; only the event engine
// reads its wake array. An entry names, in ticks of that clock, when its
// unit must next run: a crossbar's or a channel's NextWake, or for a
// partition the earliest of its banks' NextWake and, while its DRAM return
// queue holds a line, the next tick. The engine runs a unit only on the
// domain ticks its entry names (a due partition ticks only the banks whose
// own NextWake has come), and each crossbar, bank and channel replays the
// ticks in between itself, from its own clock (SkipTo), right before it
// next runs or is mutated from outside.
//
// That is the Touch rule, stated once: whoever mutates a unit from outside
// — a hand-off, an injecting core, a consuming sink — first calls
// unit.SkipTo with the last tick before the mutation (the unit replays the
// frozen span from its own clock, and does nothing at or behind it), then
// mutates it, then asks it again (set(u, unit.NextWake())). A touch to one
// bank or to the fill of a partition can only bring the partition's wake
// forward, so it takes the min with the entry. A blocked hand-off needs no
// rule of its own: the unit holding the blocked head answers "next tick"
// until it moves.
type clock struct {
	ratio float64 // domain ticks per core cycle; 0 outside ModeNormal
	acc   float64 // the fraction of a tick carried into the next core cycle
	tick  int64   // domain ticks elapsed
	min   int64   // a lower bound on wake's entries, exact after each domain tick
	wake  []int64 // per unit: the domain tick at which it must next run
}

func newClock(ratio float64, units int) clock {
	c := clock{ratio: ratio, min: sched.Never, wake: make([]int64, units)}
	for i := range c.wake {
		c.wake[i] = sched.Never
	}
	return c
}

// next returns the accumulator and the tick count one core cycle on, without
// stepping the clock: the tick loop's float sequence, which every caller
// commits by storing acc and stepping tick up to the count.
func (c *clock) next() (acc float64, tick int64) {
	for acc, tick = c.acc+c.ratio, c.tick; acc >= 1; acc-- {
		tick++
	}
	return acc, tick
}

// set records unit u's new wake.
func (c *clock) set(u int, wake int64) {
	c.wake[u] = wake
	c.min = min(c.min, wake)
}

// Units of the 700 MHz domain, in the order a tick visits them: the two
// crossbars, then the memory partitions, each covering its DRAM fill, its
// banks with their reply injections, and its miss drain.
const (
	uReq = iota
	uReply
	uPart0
)

// tickIcntDue runs the 700 MHz domain tick g.icnt.tick for the units due on
// it, in tickIcntDomain's order: request crossbar, reply crossbar, request
// ejections in ascending bank order, then per due partition the DRAM fill,
// the due banks (each with its reply injection) and the miss drain. Units
// that ran, and units a hand-off mutated, then name their next wake.
func (g *GPU) tickIcntDue() {
	d := &g.icnt
	t := d.tick
	reqDue := d.wake[uReq] <= t
	if reqDue {
		g.req.SkipTo(t - 1)
		g.req.Tick()
		g.stats.Xbar.TicksRun++
	}
	// The reply crossbar names its next wake again if it ran or a bank
	// injected into it on this tick.
	replyTouched := d.wake[uReply] <= t
	if replyTouched {
		g.reply.SkipTo(t - 1)
		g.reply.Tick()
		g.stats.Xbar.TicksRun++
		g.wakeReplied()
	}
	if reqDue {
		// A consumable ejection head is a wake of the request crossbar, so
		// none can wait behind a crossbar that is not due.
		for wi, word := range g.req.OccupiedDsts() {
			for word != 0 {
				dst := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				bank := g.banks[dst]
				if pkt, ok := g.req.Peek(dst); ok && bank.CanAccept() {
					bank.SkipTo(t - 1)
					g.req.Pop(dst)
					bank.Accept(pkt.Fetch)
					g.req.Release(pkt)
					u := uPart0 + dst%len(g.parts)
					d.wake[u] = min(d.wake[u], bank.NextWake())
				}
			}
		}
	}
	for pi, p := range g.parts {
		if d.wake[uPart0+pi] > t {
			continue
		}
		if f, ok := p.DRAM.PeekResponse(); ok {
			g.banks[f.BankID].SkipTo(t - 1)
			p.DRAM.SkipTo(g.dram.tick)
			if p.DeliverFill() != nil {
				g.dram.set(pi, p.DRAM.NextWake())
			}
		}
		// Only the banks whose own wake has come tick: any other would
		// replay its frozen tick, which its SkipTo does later in bulk.
		ticked := false
		for _, b := range p.Banks {
			if b.NextWake() > t {
				continue
			}
			b.SkipTo(t - 1)
			b.Tick()
			g.stats.L2.TicksRun++
			ticked = true
			// The bank's reply injection, which tickIcntDomain runs after
			// the last partition's TickL2: it touches only this bank's
			// response queue and its own reply-crossbar source, which no
			// sibling's tick and no miss drain reads, and one pass over
			// the banks is measurably cheaper than two.
			if f, ok := b.PeekResponse(); ok && g.reply.CanInject(b.ID, f.ReplyBytes()) {
				g.reply.SkipTo(t)
				g.reply.Inject(f, b.ID, f.CoreID, f.ReplyBytes())
				b.PopResponse()
				replyTouched = true
			}
		}
		// A miss leaving the bank pipeline is a wake of its bank, so the
		// drain moves nothing unless one ran.
		if ticked {
			if b := p.NextMiss(); b != nil {
				p.DRAM.SkipTo(g.dram.tick)
				p.ForwardMiss(b)
				g.dram.set(pi, p.DRAM.NextWake())
			}
		}
		wake := sched.Never
		for _, b := range p.Banks {
			wake = min(wake, b.NextWake())
		}
		// A waiting fill keeps the partition due: it waits only for its
		// bank's port or fill drain.
		if _, ok := p.DRAM.PeekResponse(); ok {
			wake = t + 1
		}
		d.wake[uPart0+pi] = wake
	}
	if reqDue {
		d.wake[uReq] = g.req.NextWake()
	}
	if replyTouched {
		d.wake[uReply] = g.reply.NextWake()
	}
	d.min = slices.Min(d.wake)
}

// wakeReplied schedules, for the current core cycle, each core whose reply
// the reply crossbar's tick just made consumable. A head finishing its
// latency is a wake of that crossbar, and the crossbar stays due every tick
// while a consumable head waits, so no reply turns consumable unseen. Parked
// cores always have response-FIFO room, so arrival and consumption cycles
// match the tick engine's exactly; a core whose FIFO is full is due on the
// next cycle anyway. A Pop cannot expose a second consumable head behind a
// jump either: one FIFO's heads finish at least a tick apart and a core pops
// its head the cycle it turns consumable, so two are consumable at once only
// where the crossbar ticks more than once per core cycle — and there every
// cycle holds a tick of it.
func (g *GPU) wakeReplied() {
	for wi, word := range g.reply.OccupiedDsts() {
		for word != 0 {
			c := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if g.wheel.ScheduledAt(int32(c)) == g.cycle || g.cores[c].Done() {
				continue
			}
			if _, ok := g.reply.Peek(c); ok {
				g.wheel.Schedule(int32(c), g.cycle)
			}
		}
	}
}

// tickDRAMDue runs the DRAM command-clock tick g.dram.tick for the channels
// due on it. A burst retiring into a return queue makes that partition due
// on the next 700 MHz tick.
func (g *GPU) tickDRAMDue() {
	d := &g.dram
	t := d.tick
	for pi, p := range g.parts {
		if d.wake[pi] > t {
			continue
		}
		p.DRAM.SkipTo(t - 1)
		p.DRAM.Tick()
		g.stats.DRAM.TicksRun++
		d.wake[pi] = p.DRAM.NextWake()
		if _, ok := p.DRAM.PeekResponse(); ok {
			u := uPart0 + pi
			g.icnt.set(u, min(g.icnt.wake[u], g.icnt.tick+1))
		}
	}
	d.min = slices.Min(d.wake)
}

// runEvent is the event engine. Each core registers its next-wake cycle in
// the core clock's wake array (ties break in ascending core ID — exactly
// the tick loop's iteration order), and a reply turning consumable
// schedules its core from the reply crossbar's tick (wakeReplied); each
// crossbar, memory partition and DRAM channel holds one entry in its clock
// domain's wake array and runs only on the domain ticks that reach it; and
// a span in which no core and no unit is due is replayed in bulk: the
// clock-domain accumulators step through the exact float sequence the tick
// loop would produce, the profiler's RecordN bulk path records the (frozen)
// gauge vector once per skipped cycle, each core's SkipTo replays its
// per-cycle stall attribution and fetch round-robin rotation, and each
// unit's SkipTo replays its frozen per-tick statistics the next time it
// runs. Every statistic is byte-identical to the tick engine's.
func (g *GPU) runEvent() (Metrics, error) {
	normal := g.cfg.Mode == config.ModeNormal
	var lastProgress int64 // last cycle the instruction count moved

	alive := len(g.cores)
	g.wheel = sched.NewWheel(0, len(g.cores))
	for i := range g.cores {
		g.wheel.Schedule(int32(i), 1)
	}
	due := make([]int32, 0, len(g.cores))
	var replyOcc []uint64 // reply-network ejection occupancy (nil outside ModeNormal)
	if normal {
		replyOcc = g.reply.OccupiedDsts()
	}

	finish := func() {
		// Catch every lazily parked unit up to where its clock domain
		// stands before any metric is read.
		if normal {
			g.req.SkipTo(g.icnt.tick)
			g.reply.SkipTo(g.icnt.tick)
			for _, b := range g.banks {
				b.SkipTo(g.icnt.tick)
			}
			for _, p := range g.parts {
				p.DRAM.SkipTo(g.dram.tick)
			}
		}
		for _, c := range g.cores {
			c.SkipTo(g.cycle)
		}
	}

	for {
		// The next cycle's domain ticks, not yet stepped.
		ia, it := g.icnt.next()
		da, dt := g.dram.next()

		// Bulk-replay a span in which nothing is due: no core before its
		// wake, no domain tick reaching a unit's wake. The jump ends before
		// the first cycle holding an event, so every event fires inside a
		// normal cycle, and is clamped so the truncation and livelock
		// checks trip on exactly the cycle the unskipped run would have
		// stopped at.
		coreWake := g.wheel.Min()
		if coreWake > g.cycle+1 && it < g.icnt.min && dt < g.dram.min {
			target := min(coreWake-1, lastProgress+g.livelockWindow+1)
			if g.cfg.MaxCycles > 0 {
				target = min(target, g.cfg.MaxCycles)
			}
			from := g.cycle
			if !normal {
				g.cycle = target // no clock domains to step
			}
			for g.cycle < target && it < g.icnt.min && dt < g.dram.min {
				g.icnt.acc, g.icnt.tick = ia, it
				g.dram.acc, g.dram.tick = da, dt
				g.cycle++
				ia, it = g.icnt.next()
				da, dt = g.dram.next()
			}
			n := g.cycle - from
			if g.prof != nil {
				// No unit state mutates across the span, and every cycle a
				// clock-compared gauge flips on is a wake, so the gauge
				// vector at its start stands for every skipped cycle.
				g.prof.RecordN(g.sampleGauges(), n)
			}
			g.stats.Jumps++
			g.stats.SkippedCycles += n
			if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
				g.truncated = true
				break
			}
			if g.cycle-lastProgress > g.livelockWindow {
				finish()
				return g.collect(), g.livelockErr(lastProgress)
			}
			continue
		}

		g.cycle++

		if normal {
			g.icnt.acc, g.dram.acc = ia, da
			for g.icnt.tick < it {
				g.icnt.tick++
				if g.icnt.min <= g.icnt.tick {
					g.tickIcntDue()
				}
			}
			for g.dram.tick < dt {
				g.dram.tick++
				if g.dram.min <= g.dram.tick {
					g.tickDRAMDue()
				}
			}
		}

		due = g.wheel.Due(g.cycle, due[:0])
		replies := normal && g.reply.InFlight() > 0
		for _, id := range due {
			c := g.cores[id]
			// Lazy catch-up: replay the cycles the core sat parked, then
			// tick it exactly where the tick loop would have.
			c.SkipTo(g.cycle - 1)
			if replies && replyOcc[id>>6]&(1<<uint(id&63)) != 0 && c.CanAcceptResponse() {
				g.reply.SkipTo(g.icnt.tick)
				if pkt, ok := g.reply.Pop(c.ID); ok {
					g.icnt.set(uReply, g.reply.NextWake())
					c.AcceptResponse(pkt.Fetch)
					g.reply.Release(pkt)
				}
			}
			before := c.Stats.Issued
			c.Tick()
			g.stats.Core.TicksRun++
			if c.Stats.Issued != before {
				lastProgress = g.cycle
			}
			if c.Done() {
				alive--
				continue
			}
			// Never leaves the core unscheduled (it waits on a reply in
			// flight); the reply crossbar's tick schedules it the cycle its
			// packet becomes consumable (wakeReplied).
			g.wheel.Schedule(id, c.NextWake())
		}

		if g.prof != nil {
			// Gauges that compare a reservation against a unit's clock
			// (dram/bus-busy, l2/bank-busy) flip only on a wake of that
			// unit, so a lazily parked unit's stale clock reads the same.
			g.prof.Record(g.sampleGauges())
		}

		if alive == 0 {
			break
		}
		if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
			g.truncated = true
			break
		}
		if g.cycle-lastProgress > g.livelockWindow {
			finish()
			return g.collect(), g.livelockErr(lastProgress)
		}
	}
	finish()
	return g.collect(), nil
}

// runApart runs a fixed-latency cell core by core: no core reads what another
// writes, so each ticks alone on exactly the cycles runEvent gives it. A core
// that issues nothing for a livelock window hands the cell to the tick loop.
func (g *GPU) runApart() (Metrics, error) {
	for _, c := range g.cores {
		var lastIssue, issued int64
		for t := int64(1); !c.Done(); t = max(c.NextWake(), t+1) {
			if t-lastIssue > g.livelockWindow { // the cell wedged, or only this core
				fresh, _ := New(g.cfg, g.wl, WithEngine(EngineTick)) // New accepted them for g
				fresh.prof, fresh.gaugeBuf = g.prof, g.gaugeBuf      // nothing recorded yet
				*g = *fresh
				return g.runTick()
			}
			if g.cfg.MaxCycles > 0 && t > g.cfg.MaxCycles {
				g.truncated = true
				c.SkipTo(g.cfg.MaxCycles)
				break
			}
			if n := t - 1 - c.Stats.Cycles; n > 0 { // Stats.Cycles: the core's clock
				g.stats.Jumps++
				g.stats.SkippedCycles += n
			}
			c.SkipTo(t - 1)
			c.Tick()
			g.stats.Core.TicksRun++
			if c.Stats.Issued != issued {
				issued, lastIssue = c.Stats.Issued, t
			}
		}
		g.cycle = max(g.cycle, c.Stats.Cycles)
	}
	if g.prof != nil { // both ideal-mode gauges lack a capacity: zero every cycle
		g.prof.RecordN(g.sampleGauges(), g.cycle)
	}
	return g.collect(), nil
}

// livelockErr is ErrLivelock with where progress stopped and what core 0
// still holds.
func (g *GPU) livelockErr(lastProgress int64) error {
	return fmt.Errorf("%w after cycle %d: %s", ErrLivelock, lastProgress, g.cores[0].OutstandingWork())
}

package core

import (
	"fmt"
	"math/bits"

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
	// EngineEvent is the calendar-queue event engine: every core reports
	// its next-wake cycle (smcore.Core.NextWake) and the loop advances
	// straight to the earliest pending event, skipping the ticks in
	// between. What New builds unless told otherwise.
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

// wheelHorizon is the calendar wheel's span in core cycles. It exceeds
// every wake distance the paper's configurations produce (the Fig. 3
// sweep tops out at 800 cycles). A core's completions have no horizon of
// their own, so a config with a longer latency reports a wake beyond the
// wheel: Wheel.Schedule clamps it to the edge, the core wakes early, finds
// nothing due and reschedules — harmless under the one-sided contract.
const wheelHorizon = 4096

// runEvent is the calendar-queue event engine. Each core registers its
// next-wake cycle on a calendar wheel (ties break in ascending core ID —
// exactly the tick loop's iteration order); the 700 MHz and DRAM domains
// keep deferred skip counters while idle and tick only while they hold
// work; and spans where every unit is parked are replayed in bulk: the
// clock-domain accumulators step through the exact float sequence the
// tick loop would produce, the profiler's RecordN bulk path records the
// (frozen) gauge vector once per skipped cycle, and each core's SkipTo
// replays its per-cycle stall attribution and fetch round-robin rotation.
// Every statistic is byte-identical to the tick engine's.
func (g *GPU) runEvent() (Metrics, error) {
	icntRatio := g.cfg.Icnt.ClockMHz / g.cfg.Core.ClockMHz
	dramRatio := g.cfg.DRAM.ClockMHz / g.cfg.Core.ClockMHz
	normal := g.cfg.Mode == config.ModeNormal

	var lastProgress int64 // last cycle the instruction count moved
	var lastIssued int64
	var issued int64 // running Stats.Issued total over all cores

	// Deferred domain ticks: while a domain is idle its per-cycle ticks
	// are counted here and bulk-replayed (SkipTicks) right before its
	// next real tick, keeping every unit clock and cycle counter exact.
	var icntSkip, dramSkip int64
	dramBusy := false

	alive := len(g.cores)
	wheel := sched.NewWheel(wheelHorizon, len(g.cores))
	for i := range g.cores {
		wheel.Schedule(int32(i), 1)
	}
	due := make([]int32, 0, len(g.cores))
	// Cores that wake on the very next cycle — the steady state while a
	// core issues — bypass the wheel entirely: they ride the carry list
	// (kept in ascending ID order) and merge with the wheel's due set.
	carry := make([]int32, 0, len(g.cores))
	carryNext := make([]int32, 0, len(g.cores))
	merged := make([]int32, 0, len(g.cores))
	carriedAt := make([]int64, len(g.cores)) // cycle each carried core ticks
	// coreNow mirrors each core's clock in one compact array, sparing the
	// catch-up check a pointer chase into every core struct per cycle.
	coreNow := make([]int64, len(g.cores))
	for i, c := range g.cores {
		coreNow[i] = c.Now()
	}
	var replyOcc []uint64 // reply-network ejection occupancy (nil outside ModeNormal)
	if normal {
		replyOcc = g.reply.OccupiedDsts()
	}

	finish := func() {
		// Catch lazily parked units up to the final cycle before any
		// metric is read.
		g.flushSkips(&icntSkip, &dramSkip)
		for _, c := range g.cores {
			c.SkipTo(g.cycle)
		}
	}
	livelock := func() error {
		return fmt.Errorf("%w after cycle %d: %s",
			ErrLivelock, lastProgress, g.cores[0].OutstandingWork())
	}

	for {
		// Bulk-replay a fully idle span: both domains drained and every
		// core parked past the next cycle. The jump lands one cycle short
		// of the earliest wake so the event fires inside a normal tick,
		// and is clamped so the truncation and livelock checks trip on
		// exactly the cycle the unskipped run would have stopped at.
		if !g.icntWork && !dramBusy && len(carry) == 0 {
			if wake := wheel.Min(); wake > g.cycle+1 {
				target := clampTarget(g.cfg.MaxCycles, lastProgress, wake-1)
				if target > g.cycle {
					if g.prof != nil {
						// No unit state mutates across the span, so the
						// gauge vector at its start stands for every
						// skipped cycle.
						g.prof.RecordN(g.sampleGauges(), target-g.cycle)
					}
					if normal {
						// Step the clock-domain accumulators cycle by
						// cycle — the exact float sequence the tick loop
						// would produce — deferring the (idle) domain
						// ticks each accumulates.
						for i := g.cycle; i < target; i++ {
							g.icntAcc += icntRatio
							for g.icntAcc >= 1 {
								g.icntAcc--
								icntSkip++
							}
							g.dramAcc += dramRatio
							for g.dramAcc >= 1 {
								g.dramAcc--
								dramSkip++
							}
						}
					}
					g.skipped += target - g.cycle
					g.cycle = target
					if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
						g.truncated = true
						break
					}
					if g.cycle-lastProgress > 200_000 {
						finish()
						return g.collect(), livelock()
					}
					continue
				}
			}
		}

		g.cycle++

		if normal {
			g.icntAcc += icntRatio
			for g.icntAcc >= 1 {
				g.icntAcc--
				if !g.icntWork {
					icntSkip++
					continue
				}
				g.flushSkips(&icntSkip, &dramSkip)
				g.tickIcntDomain()
				// Busy→idle is re-evaluated only after a busy tick, and
				// only once the cheap in-flight gate clears.
				if g.req.InFlight() == 0 && g.reply.InFlight() == 0 {
					g.icntWork = g.anyPartitionIcntWork()
				}
				if !dramBusy {
					// TickL2 may have pushed a miss into a DRAM channel.
					for _, p := range g.parts {
						if !p.DRAM.Idle() {
							dramBusy = true
							break
						}
					}
				}
			}
			g.dramAcc += dramRatio
			for g.dramAcc >= 1 {
				g.dramAcc--
				if !dramBusy {
					dramSkip++
					continue
				}
				if dramSkip > 0 {
					for _, p := range g.parts {
						p.DRAM.SkipTicks(dramSkip)
					}
					dramSkip = 0
				}
				idle := true
				for _, p := range g.parts {
					p.DRAM.Tick()
					if !p.DRAM.Idle() {
						idle = false
					}
				}
				dramBusy = !idle
				if !g.icntWork {
					// A completed burst parked in a return queue is the
					// 700 MHz domain's work to deliver.
					for _, p := range g.parts {
						if _, ok := p.DRAM.PeekResponse(); ok {
							g.icntWork = true
							break
						}
					}
				}
			}

			// A consumable reply wakes its destination core this cycle —
			// parked cores always have response-FIFO room, so arrival and
			// consumption cycles match the tick engine's exactly. Only
			// destinations with an occupied ejection FIFO need peeking.
			if g.reply.InFlight() > 0 {
				for wi, word := range replyOcc {
					for word != 0 {
						d := wi<<6 + bits.TrailingZeros64(word)
						word &= word - 1
						id := int32(d)
						if carriedAt[d] == g.cycle || wheel.ScheduledAt(id) == g.cycle || g.cores[d].Done() {
							continue
						}
						if _, ok := g.reply.Peek(d); ok {
							wheel.Schedule(id, g.cycle)
						}
					}
				}
			}
		}

		due = wheel.Due(g.cycle, due[:0])
		// Merge the wheel's due set with the carry list. Both are ascending
		// and disjoint (a carried core's wheel wake is Never, and the reply
		// scan skips carried cores), so the merge preserves the tick loop's
		// ascending-ID order.
		run := due
		if len(carry) > 0 {
			if len(due) == 0 {
				run = carry
			} else {
				merged = merged[:0]
				i, j := 0, 0
				for i < len(due) && j < len(carry) {
					if due[i] < carry[j] {
						merged = append(merged, due[i])
						i++
					} else {
						merged = append(merged, carry[j])
						j++
					}
				}
				merged = append(merged, due[i:]...)
				merged = append(merged, carry[j:]...)
				run = merged
			}
		}
		carryNext = carryNext[:0]
		replies := normal && g.reply.InFlight() > 0
		for _, id := range run {
			c := g.cores[id]
			// Lazy catch-up: replay the cycles the core sat parked, then
			// tick it exactly where the tick loop would have.
			if coreNow[id] < g.cycle-1 {
				c.SkipTo(g.cycle - 1)
			}
			if replies && replyOcc[id>>6]&(1<<uint(id&63)) != 0 && c.CanAcceptResponse() {
				if pkt, ok := g.reply.Pop(c.ID); ok {
					c.AcceptResponse(pkt.Fetch)
					g.reply.Release(pkt)
				}
			}
			before := c.Stats.Issued
			c.Tick()
			coreNow[id] = g.cycle
			issued += c.Stats.Issued - before
			if c.Done() {
				alive--
				continue
			}
			if w, ok := c.NextWake(); ok && w != g.cycle+1 {
				// Never parks the core off the wheel entirely (it waits on
				// a reply in flight); the reply-arrival scan above
				// re-schedules it the cycle its packet becomes consumable.
				if w != sched.Never {
					wheel.Schedule(id, w)
				}
			} else {
				carryNext = append(carryNext, id)
				carriedAt[id] = g.cycle + 1
			}
		}
		carry, carryNext = carryNext, carry

		if g.prof != nil {
			// Gauges like dram/bus-busy compare a reservation against the
			// unit's clock, so deferred idle ticks must land before the
			// sample reads it.
			g.flushSkips(&icntSkip, &dramSkip)
			g.prof.Record(g.sampleGauges())
		}

		if issued != lastIssued {
			lastIssued = issued
			lastProgress = g.cycle
		}
		if alive == 0 {
			break
		}
		if g.cfg.MaxCycles > 0 && g.cycle >= g.cfg.MaxCycles {
			g.truncated = true
			break
		}
		if g.cycle-lastProgress > 200_000 {
			finish()
			return g.collect(), livelock()
		}
	}
	finish()
	return g.collect(), nil
}

// clampTarget bounds a jump target so the engine never skips past the
// MaxCycles truncation point or the livelock window's trip cycle.
func clampTarget(maxCycles, lastProgress, target int64) int64 {
	if maxCycles > 0 && target > maxCycles {
		target = maxCycles
	}
	if limit := lastProgress + 200_001; target > limit {
		target = limit
	}
	return target
}

// anyPartitionIcntWork reports whether any memory partition holds work
// for the 700 MHz domain. Callers have already checked the crossbars.
func (g *GPU) anyPartitionIcntWork() bool {
	for _, p := range g.parts {
		if p.HasL2Work() {
			return true
		}
	}
	return false
}

// flushSkips replays the deferred idle domain ticks: unit clocks and
// cycle counters advance exactly as the equivalent run of no-op Ticks
// would have. It must run before any real 700 MHz tick (an L2 miss can
// reach a DRAM channel inside TickL2, and the channel's clock must be
// current when it arrives) and before metrics are collected.
func (g *GPU) flushSkips(icntSkip, dramSkip *int64) {
	if *icntSkip > 0 {
		g.req.SkipTicks(*icntSkip)
		g.reply.SkipTicks(*icntSkip)
		for _, p := range g.parts {
			p.SkipTicks(*icntSkip)
		}
		*icntSkip = 0
	}
	if *dramSkip > 0 {
		for _, p := range g.parts {
			p.DRAM.SkipTicks(*dramSkip)
		}
		*dramSkip = 0
	}
}

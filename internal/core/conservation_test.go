package core

import (
	"fmt"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/icnt"
	"gpumembw/internal/mem"
	"gpumembw/internal/stats"
)

// drainLimit bounds how many core cycles drainMemory ticks the memory side
// before it calls the hierarchy stuck: far beyond the few hundred cycles
// in which trailing stores and write-backs have been measured to retire.
const drainLimit = 1_000_000

// drainMemory ticks the memory side of a finished run on, one core cycle
// at a time in runTick's order (tickMemory), until it is quiet: both
// crossbars empty and every partition Idle. A run ends when the last core
// drains, while its trailing stores and the write-backs they cause are
// still in flight; this is where they retire. It steps the memory clocks
// on, so EngineStats is read before it. It fails the test if the
// hierarchy does not go quiet.
func drainMemory(t *testing.T, name string, g *GPU) {
	t.Helper()
	if g.cfg.Mode != config.ModeNormal {
		return
	}
	for n := int64(0); ; n++ {
		quiet := g.req.InFlight() == 0 && g.reply.InFlight() == 0
		for _, p := range g.parts {
			quiet = quiet && p.Idle()
		}
		if quiet {
			return
		}
		if n == drainLimit {
			t.Fatalf("%s: the memory side is not quiet %d cycles after the run: %d request and %d reply packets in flight",
				name, n, g.req.InFlight(), g.reply.InFlight())
		}
		g.tickMemory()
	}
}

// requireConserved drains a completed run's memory side (drainMemory) and
// then holds the hierarchy to its conservation laws: every fetch the pool
// handed out came back exactly once, every L1 and L2 queue and MSHR table
// is empty, and each crossbar moved exactly the packets and flits of the
// requests the L2 banks accepted and the replies they sent. It also holds
// the run's metrics m and counters to the hardware's capacity: a ratio lies
// in [0, 1], a histogram's buckets sum to its lifetime, an output port
// moves at most one flit per crossbar cycle, on each L2 cycle with a
// request queued a bank either serves its access-queue head or counts one
// stall cycle, and an FR-FCFS DRAM channel issues at most one ACTIVATE per
// tRRD and one column command (read or write) per tCCD.
func requireConserved(t *testing.T, name string, g *GPU, m Metrics) {
	t.Helper()
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"IssueStallFrac", m.IssueStallFrac}, {"L1MissRate", m.L1MissRate}, {"L2MissRate", m.L2MissRate},
		{"DRAMBandwidthEff", m.DRAMBandwidthEff}, {"DRAMRowHitRate", m.DRAMRowHitRate},
		{"ReqNetUtil", m.ReqNetUtil}, {"ReplyNetUtil", m.ReplyNetUtil},
	} {
		if !(r.v >= 0 && r.v <= 1) {
			t.Errorf("%s: %s = %g, outside [0, 1]", name, r.name, r.v)
		}
	}
	for _, h := range []struct {
		name string
		h    *stats.OccupancyHist
	}{{"L2AccessOcc", &m.L2AccessOcc}, {"DRAMSchedOcc", &m.DRAMSchedOcc}} {
		var sum int64
		for _, b := range h.h.Buckets {
			sum += b
		}
		if sum != h.h.Lifetime {
			t.Errorf("%s: %s buckets sum to %d over a lifetime of %d cycles", name, h.name, sum, h.h.Lifetime)
		}
	}
	drainMemory(t, name, g)
	if a, f := g.pool.Allocated(), g.pool.FreeLen(); a != f {
		t.Errorf("%s: the fetch pool allocated %d fetches and holds %d back", name, a, f)
	}
	var stores int64
	for _, c := range g.cores {
		stores += c.Stats.StoresSent
		quiet := fmt.Sprintf("core %d: memQ=0 missQ=0 iMissQ=0 mshr=0 resp=0", c.ID)
		if !c.Done() || c.OutstandingWork() != quiet {
			t.Errorf("%s: drained=%v, %s", name, c.Done(), c.OutstandingWork())
		}
	}
	if g.cfg.Mode != config.ModeNormal {
		return
	}
	var reads, writes int64
	for _, b := range g.banks {
		if l, _ := b.MissQueueOcc(); l != 0 || b.MSHROcc() != 0 {
			t.Errorf("%s: L2 bank %d holds %d misses queued and %d MSHR entries", name, b.ID, l, b.MSHROcc())
		}
		var stalls int64
		for _, n := range b.Stats.StallCycles[1:] { // [0] is StallNone
			stalls += n
		}
		if life := b.Stats.AccessOccupancy.Lifetime; b.Stats.Accesses+stalls != life || life > g.icnt.tick {
			t.Errorf("%s: L2 bank %d took %d accesses and stalled %d cycles in %d cycles with requests queued, out of %d L2 cycles",
				name, b.ID, b.Stats.Accesses, stalls, life, g.icnt.tick)
		}
		reads += b.Stats.Accesses - b.Stats.Writes
		writes += b.Stats.Writes
	}
	for _, x := range []struct {
		net     string
		s       *icnt.Stats
		outputs int
	}{{"request", &g.req.Stats, g.cfg.L2.NumBanks}, {"reply", &g.reply.Stats, g.cfg.Core.NumCores}} {
		if x.s.FlitsTransferred > x.s.Cycles*int64(x.outputs) {
			t.Errorf("%s: the %s crossbar moved %d flits in %d cycles through %d outputs",
				name, x.net, x.s.FlitsTransferred, x.s.Cycles, x.outputs)
		}
	}
	if !g.cfg.DRAM.Infinite {
		// The first command may issue on any tick, so n ticks hold at most
		// n/gap + 1 commands a gap apart. A gap of 0 bounds nothing.
		timing := g.cfg.DRAM.Timing
		for i, p := range g.parts {
			s := &p.DRAM.Stats
			for _, r := range []struct {
				cmds, gap string
				n         int64
				gapTicks  int
			}{{"ACTIVATEs", "tRRD", s.Activates, timing.RRD}, {"reads and writes", "tCCD", s.Reads + s.Writes, timing.CCD}} {
				if r.gapTicks > 0 && r.n > g.dram.tick/int64(r.gapTicks)+1 {
					t.Errorf("%s: DRAM channel %d issued %d %s in %d ticks, one per %s = %d ticks at most",
						name, i, r.n, r.cmds, g.dram.tick, r.gap, r.gapTicks)
				}
			}
		}
	}
	if writes != stores {
		t.Errorf("%s: the cores sent %d stores and the L2 banks took %d", name, stores, writes)
	}
	flits := func(bytes, flitBytes int) int64 { return int64(mem.Flits(bytes, flitBytes)) }
	reqFlits := reads*flits(mem.ControlBytes, g.cfg.Icnt.ReqFlitBytes) +
		writes*flits(mem.ControlBytes+g.cfg.L1.LineBytes, g.cfg.Icnt.ReqFlitBytes)
	replyFlits := reads * flits(mem.ControlBytes+g.cfg.L2.LineBytes, g.cfg.Icnt.ReplyFlitBytes)
	for _, x := range []struct {
		net            string
		packets, flits int64
		got            [3]int64
	}{
		{"request", reads + writes, reqFlits, [3]int64{g.req.Stats.PacketsInjected, g.req.Stats.PacketsDelivered, g.req.Stats.FlitsTransferred}},
		{"reply", reads, replyFlits, [3]int64{g.reply.Stats.PacketsInjected, g.reply.Stats.PacketsDelivered, g.reply.Stats.FlitsTransferred}},
	} {
		if want := [3]int64{x.packets, x.packets, x.flits}; x.got != want {
			t.Errorf("%s: %s crossbar injected/delivered %d/%d packets and moved %d flits; the L2 accounts for %d packets and %d flits",
				name, x.net, x.got[0], x.got[1], x.got[2], x.packets, x.flits)
		}
	}
}

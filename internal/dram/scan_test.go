package dram

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"gpumembw/internal/sched"
)

// refTick advances c by one command cycle under the reference scheduler:
// the two-phase FR-FCFS scan this package ran before each request's gate
// was stated once, run every cycle and reading no memo. Tick keeps the
// clock, the retiring bursts and the statistics (a memo of Never makes it
// scan nothing); the scan below is the reference's own.
func refTick(c *Channel) {
	c.memo = sched.Never
	c.Tick()
	if len(c.sched) > 0 && !refIssueCAS(c) {
		refIssueRowCommand(c)
	}
}

// refIssueCAS issues the oldest row hit whose column command can issue now.
func refIssueCAS(c *Channel) bool {
	if c.nextCAS > c.now {
		return false
	}
	t := &c.cfg.DRAM.Timing
	for i, r := range c.sched {
		b := &c.banks[r.bank]
		if b.openRow != r.row || b.casReady > c.now {
			continue
		}
		if r.read && (c.readAfter > c.now || c.ret.Cap() > 0 && c.ret.Len()+c.retReserved >= c.ret.Cap()) {
			continue
		}
		dataStart := c.now + int64(t.WL)
		if r.read {
			dataStart = c.now + int64(t.CL)
		}
		if c.busBusyUntil > dataStart {
			continue
		}
		c.sched = slices.Delete(c.sched, i, i+1)
		dataEnd := dataStart + c.burst
		c.busBusyUntil = dataEnd
		c.nextCAS = c.now + int64(t.CCD)
		if r.read {
			c.Stats.Reads++
			c.retReserved++
			c.inflight = append(c.inflight, inflight{fetch: r.fetch, done: dataEnd + int64(c.cfg.DRAM.CtrlLatency)})
		} else {
			c.Stats.Writes++
			c.readAfter = dataEnd + int64(t.CDLR)
			b.preReady = max(b.preReady, dataEnd+int64(t.WR))
			c.pool.Put(r.fetch)
		}
		return true
	}
	return false
}

// refIssueRowCommand precharges or activates for the oldest request whose
// row is not open and whose bank can take that command now.
func refIssueRowCommand(c *Channel) {
	t := &c.cfg.DRAM.Timing
	for _, r := range c.sched {
		b := &c.banks[r.bank]
		switch {
		case b.openRow == r.row:
		case b.openRow >= 0 && b.preReady <= c.now:
			b.openRow = -1
			b.actReady = max(b.actReady, c.now+int64(t.RP))
			c.Stats.Precharges++
			return
		case b.openRow < 0 && b.actReady <= c.now && c.nextAct <= c.now:
			b.openRow = r.row
			b.casReady = c.now + int64(t.RCD)
			b.preReady = c.now + int64(t.RAS)
			b.actReady = c.now + int64(t.RC)
			c.nextAct = c.now + int64(t.RRD)
			c.Stats.Activates++
			return
		}
	}
}

// commands counts the commands a channel has issued.
func commands(c *Channel) int64 {
	return c.Stats.Reads + c.Stats.Writes + c.Stats.Activates + c.Stats.Precharges
}

// TestGateMatchesTwoPhaseScan drives the channel beside the reference
// scheduler with one seeded random stream: reads and writes over three
// banks of three rows each, a four-entry scheduler queue and a two-entry
// return queue whose pops are held back for stretches. The channel jumps
// from each NextWake to the next, as the event engine drives it, while
// the reference ticks every cycle. The reference must issue nothing on a
// tick the channel skips, and after every tick of the channel both must
// hold the same state: statistics, queues, bank timing and bursts. A scan
// that issues nothing may only follow, on the next tick, a pop that freed
// a slot of a full return queue, the one gate no command opens.
func TestGateMatchesTwoPhaseScan(t *testing.T) {
	var cmds, skipped, idleScans int64
	for seed := int64(0); seed < 8; seed++ {
		cfg := testConfig()
		cfg.DRAM.SchedQueueEntries = 4
		cfg.DRAM.ReturnQueueEntries = 2
		m := NewAddrMap(&cfg)
		r := rand.New(rand.NewSource(seed))
		a, b := NewChannel(0, &cfg), NewChannel(0, &cfg)
		var id uint64
		for step := 0; step < 6000; step++ {
			if r.Intn(3) == 0 {
				id++
				bank, row := r.Intn(3), int64(r.Intn(3))
				idx := (uint64(row)*m.numBanks+uint64(bank))*m.linesPerRow + uint64(r.Intn(int(m.linesPerRow)))
				addr := idx * m.numPartitions * m.lineBytes
				if gb, gr := m.BankRow(addr); gb != bank || gr != row {
					t.Fatalf("address %#x maps to bank %d row %d, want %d %d", addr, gb, gr, bank, row)
				}
				mk := newRead
				if r.Intn(3) == 0 {
					mk = newWrite
				}
				if okA, okB := a.Push(mk(id, addr)), b.Push(mk(id, addr)); okA != okB {
					t.Fatalf("seed %d step %d: Push %v vs %v", seed, step, okA, okB)
				}
			}
			freed := false
			if step/500%2 == 1 && r.Intn(3) == 0 {
				full := a.retFull()
				fa, okA := a.PopResponse()
				fb, okB := b.PopResponse()
				if okA != okB || okA && fa.ID != fb.ID {
					t.Fatalf("seed %d step %d: PopResponse diverged", seed, step)
				}
				freed = okA && full
			}
			span := int64(1 + r.Intn(40)) // a frozen channel: only a Push or a pop ends it
			if wake := a.NextWake(); wake != sched.Never {
				span = wake - a.now
			}
			before := commands(a)
			for i := int64(1); i < span; i++ {
				refTick(b)
				if commands(b) != before {
					t.Fatalf("seed %d step %d: the reference issued a command on tick %d, which the channel skips to %d",
						seed, step, b.now, a.now+span)
				}
			}
			skipped += span - 1
			a.SkipTo(a.now + span - 1)
			scans := a.now+1 >= a.memo
			a.Tick()
			refTick(b)
			if scans && commands(a) == before {
				idleScans++
				if !freed {
					t.Fatalf("seed %d step %d: tick %d scanned and issued nothing, and no pop freed a full return queue's slot before it",
						seed, step, a.now)
				}
			}
			b.memo = a.memo // the reference keeps none
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d tick %d: the channel diverged from the reference:\ngate: %+v\nref:  %+v", seed, step, a.now, a, b)
			}
		}
		cmds += commands(a)
	}
	if cmds == 0 || skipped == 0 || idleScans == 0 {
		t.Errorf("%d commands, %d ticks skipped, %d idle scans after a freed slot: the test is vacuous", cmds, skipped, idleScans)
	}
	t.Logf("%d commands, %d ticks skipped, %d idle scans after a freed slot", cmds, skipped, idleScans)
}

package dram

import (
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
	"gpumembw/internal/stats"
)

func testConfig() config.Config {
	return config.Baseline()
}

func newRead(id uint64, addr uint64) *mem.Fetch {
	return &mem.Fetch{ID: id, Type: mem.DataRead, Addr: addr, SizeBytes: 128}
}

func newWrite(id uint64, addr uint64) *mem.Fetch {
	return &mem.Fetch{ID: id, Type: mem.WriteBack, Addr: addr, SizeBytes: 128}
}

// drain runs the channel until n responses arrive or the cycle budget runs
// out, returning the responses in arrival order.
func drain(t *testing.T, c *Channel, n, budget int) []*mem.Fetch {
	t.Helper()
	var out []*mem.Fetch
	for i := 0; i < budget && len(out) < n; i++ {
		c.Tick()
		for {
			f, ok := c.PopResponse()
			if !ok {
				break
			}
			out = append(out, f)
		}
	}
	if len(out) < n {
		t.Fatalf("only %d/%d responses after %d cycles", len(out), n, budget)
	}
	return out
}

// rowHitRate is the fraction of column accesses served without a row
// activation (an access needing an ACTIVATE is a row miss).
func rowHitRate(s *Stats) float64 {
	total := s.Reads + s.Writes
	return stats.Ratio(max(total-s.Activates, 0), total)
}

func TestAddrMapPartitionInterleaving(t *testing.T) {
	cfg := testConfig()
	m := NewAddrMap(&cfg)
	// Consecutive lines must rotate across all 6 partitions, the digit the
	// map strips before it picks a bank and row.
	seen := map[uint64]bool{}
	bank0, row0 := m.BankRow(0)
	for i := uint64(0); i < 6; i++ {
		addr := i * 128
		seen[addr/m.lineBytes%m.numPartitions] = true
		if b, r := m.BankRow(addr); b != bank0 || r != row0 {
			t.Fatalf("line %d: bank/row = %d/%d, want %d/%d", i, b, r, bank0, row0)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("6 consecutive lines used %d partitions, want 6", len(seen))
	}
}

func TestAddrMapRowLocality(t *testing.T) {
	cfg := testConfig()
	m := NewAddrMap(&cfg)
	// A per-partition stream (every 6th line) must stay in one row for
	// linesPerRow lines: 4 KB row / 128 B = 32 lines.
	bank0, row0 := m.BankRow(0)
	for i := 1; i < 32; i++ {
		addr := uint64(i) * 6 * 128 // same partition as line 0
		b, r := m.BankRow(addr)
		if b != bank0 || r != row0 {
			t.Fatalf("line %d: bank/row = %d/%d, want %d/%d", i, b, r, bank0, row0)
		}
	}
	// The 33rd line must move on (next bank).
	b, _ := m.BankRow(32 * 6 * 128)
	if b == bank0 {
		t.Fatalf("line 32 stayed in bank %d", b)
	}
}

// TestReadLatencyUncongested holds one read to a closed row on an idle
// channel to its exact command sequence, tick by tick. Tick 1 finds the
// bank precharged and issues the ACTIVATE; the CAS waits tRCD and issues on
// tick 1+tRCD = 13; its burst starts CL later and holds the data bus for
// DRAMBurstCycles, ending on tick 13+12+4 = 29; the controller pipeline
// delivers it CtrlLatency later, on tick 29+43 = 72, when drain pops it.
// Work is pending on ticks 1-71: on tick 72 the burst retires before the
// count. No row was open, so nothing was precharged.
func TestReadLatencyUncongested(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	f := newRead(1, 0)
	if !c.Push(f) {
		t.Fatal("push failed")
	}
	resp := drain(t, c, 1, 1000)
	if resp[0] != f {
		t.Fatal("wrong fetch returned")
	}
	tm := &cfg.DRAM.Timing
	want := int64(1 + tm.RCD + tm.CL + cfg.DRAMBurstCycles() + cfg.DRAM.CtrlLatency)
	if c.now != want || want != 72 {
		t.Fatalf("uncongested read landed on tick %d, want %d (72 at baseline)", c.now, want)
	}
	got := [4]int64{c.Stats.Activates, c.Stats.Reads, c.Stats.Precharges, c.Stats.PendingCycles}
	if w := [4]int64{1, 1, 0, want - 1}; got != w {
		t.Fatalf("activates/reads/precharges/pending = %v, want %v", got, w)
	}
}

func TestRowHitsForStream(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	// 16 lines of one partition-local stream → 1 activate, 15 row hits.
	id := uint64(0)
	pushed := 0
	for i := 0; pushed < 16; i++ {
		addr := uint64(i) * 6 * 128
		f := newRead(id, addr)
		id++
		if c.Push(f) {
			pushed++
		} else {
			c.Tick()
			for {
				if _, ok := c.PopResponse(); !ok {
					break
				}
			}
			i-- // retry
		}
	}
	drain(t, c, 16-len(collect(c)), 4000)
	if c.Stats.Activates != 1 {
		t.Fatalf("activates = %d, want 1 for a single-row stream", c.Stats.Activates)
	}
	if got := rowHitRate(&c.Stats); got < 0.9 {
		t.Fatalf("row hit rate = %g, want ≥ 0.9", got)
	}
}

func collect(c *Channel) []*mem.Fetch {
	var out []*mem.Fetch
	for {
		f, ok := c.PopResponse()
		if !ok {
			return out
		}
		out = append(out, f)
	}
}

func TestRandomTrafficActivatesManyBanks(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	// Requests that stride across rows force precharges/activates.
	rowStride := uint64(cfg.DRAM.RowBytes) * uint64(cfg.DRAM.BanksPerChip) * 6
	total := 12
	got := 0
	next := 0
	for cycles := 0; got < total && cycles < 20000; cycles++ {
		if next < total {
			if c.Push(newRead(uint64(next), uint64(next)*rowStride)) {
				next++
			}
		}
		c.Tick()
		got += len(collect(c))
	}
	if got != total {
		t.Fatalf("completed %d/%d", got, total)
	}
	if c.Stats.Activates < int64(total) {
		t.Fatalf("activates = %d, want ≥ %d for row-striding traffic", c.Stats.Activates, total)
	}
}

func TestSchedulerQueueBounded(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	accepted := 0
	for i := 0; i < 100; i++ {
		if c.Push(newRead(uint64(i), uint64(i)*6*128)) {
			accepted++
		}
	}
	if accepted != cfg.DRAM.SchedQueueEntries {
		t.Fatalf("accepted %d, want %d", accepted, cfg.DRAM.SchedQueueEntries)
	}
	if !c.Full() {
		t.Fatal("channel must report full")
	}
}

func TestWritesConsumeBusNoReply(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	for i := 0; i < 4; i++ {
		if !c.Push(newWrite(uint64(i), uint64(i)*6*128)) {
			t.Fatalf("push %d failed", i)
		}
	}
	for i := 0; i < 500; i++ {
		c.Tick()
	}
	if c.Stats.Writes != 4 {
		t.Fatalf("writes = %d, want 4", c.Stats.Writes)
	}
	if got := collect(c); len(got) != 0 {
		t.Fatalf("writes produced %d responses", len(got))
	}
	if c.Stats.BusBusyCycles == 0 {
		t.Fatal("writes must occupy the data bus")
	}
}

func TestBandwidthEfficiencyBounds(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	next := 0
	done := 0
	for cycles := 0; done < 64 && cycles < 50000; cycles++ {
		if c.Push(newRead(uint64(next), uint64(next)*6*128)) {
			next++
		}
		c.Tick()
		done += len(collect(c))
	}
	// Data-transfer time over the time the channel had requests pending.
	eff := stats.Ratio(c.Stats.BusBusyCycles, c.Stats.PendingCycles)
	if eff <= 0 || eff > 1 {
		t.Fatalf("bandwidth efficiency = %g, want in (0, 1]", eff)
	}
}

func TestTimingConstraintsRespected(t *testing.T) {
	cfg := testConfig()
	c := NewChannel(0, &cfg)
	// Same-bank different-row requests must be spaced by ≥ tRC between
	// activates. Two rows in bank 0: row stride within a bank is
	// linesPerRow lines of this partition.
	rowStride := uint64(cfg.DRAM.RowBytes) * uint64(cfg.DRAM.BanksPerChip) * 6
	c.Push(newRead(1, 0))
	c.Push(newRead(2, rowStride))
	drain(t, c, 2, 5000)
	// ACT1 ≈ cycle 1; second activate needs PRE after tRAS(28) + tRP(12).
	// Total ≥ 1 + 28 + 12 + tRCD + CL + burst ≈ 69.
	if c.now < 60 {
		t.Fatalf("same-bank row conflict finished in %d cycles — timing violated", c.now)
	}
	if c.Stats.Activates != 2 || c.Stats.Precharges != 1 {
		t.Fatalf("activates=%d precharges=%d, want 2/1", c.Stats.Activates, c.Stats.Precharges)
	}
}

// TestInfiniteModeFixedLatency pushes 200 reads and one write into a P_DRAM
// channel on tick 0. Every read lands on exactly the same tick, unserialized:
// InfiniteLatency is in core cycles, 90 × 924 / 1400 = 59.4 command-clock
// ticks, truncated to 59. The write is counted and absorbed: it returns to
// the fetch pool and sends no response.
func TestInfiniteModeFixedLatency(t *testing.T) {
	cfg := config.InfiniteDRAM()
	c := NewChannel(0, &cfg)
	pool := &mem.FetchPool{}
	c.SetFetchPool(pool)
	// Far more than any bounded queue would hold.
	for i := 0; i < 200; i++ {
		if !c.Push(newRead(uint64(i), uint64(i)*128)) {
			t.Fatalf("infinite DRAM rejected request %d", i)
		}
	}
	if !c.Push(newWrite(200, 0)) || c.Full() {
		t.Fatal("infinite DRAM must never be full")
	}
	wantLat := int64(float64(cfg.DRAM.InfiniteLatency) * cfg.DRAM.ClockMHz / cfg.Core.ClockMHz)
	if wantLat != 59 {
		t.Fatalf("P_DRAM latency %d command-clock ticks, want 59", wantLat)
	}
	for c.now < wantLat-1 {
		c.Tick()
		if _, ok := c.PeekResponse(); ok {
			t.Fatalf("a read landed on tick %d, before %d", c.now, wantLat)
		}
	}
	c.Tick()
	resp := collect(c)
	for i, f := range resp {
		if f.ID != uint64(i) {
			t.Fatalf("response %d is fetch %d", i, f.ID)
		}
	}
	if len(resp) != 200 || c.Stats.Reads != 200 || c.Stats.Writes != 1 || pool.FreeLen() != 1 || !c.Idle() {
		t.Fatalf("on tick %d: %d responses, %d reads, %d writes counted, %d fetches pooled, idle %v; want 200, 200, 1, 1, true",
			c.now, len(resp), c.Stats.Reads, c.Stats.Writes, pool.FreeLen(), c.Idle())
	}
}

func TestHBMConfigQuadruplesBurstRate(t *testing.T) {
	base := config.Baseline()
	hbm := config.HBM()
	if base.DRAMBurstCycles() != 4 || hbm.DRAMBurstCycles() != 1 {
		t.Fatalf("burst cycles base=%d hbm=%d, want 4 and 1",
			base.DRAMBurstCycles(), hbm.DRAMBurstCycles())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		cfg := testConfig()
		c := NewChannel(0, &cfg)
		next := 0
		done := 0
		for cycles := 0; done < 32 && cycles < 20000; cycles++ {
			if next < 64 && c.Push(newRead(uint64(next), uint64(next*next%977)*128)) {
				next++
			}
			c.Tick()
			done += len(collect(c))
		}
		return c.now, c.Stats.Activates
	}
	n1, a1 := run()
	n2, a2 := run()
	if n1 != n2 || a1 != a2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", n1, a1, n2, a2)
	}
}

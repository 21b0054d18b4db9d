package l2

import (
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
)

// bankAddr returns the i-th line address owned by the given global bank.
func bankAddr(cfg *config.Config, globalBank, i int) uint64 {
	lineIdx := uint64(i)*uint64(cfg.L2.NumBanks) + uint64(globalBank)
	return lineIdx * uint64(cfg.L2.LineBytes)
}

func read(id uint64, addr uint64, cfg *config.Config) *mem.Fetch {
	lineIdx := addr / uint64(cfg.L2.LineBytes)
	bank := int(lineIdx % uint64(cfg.L2.NumBanks))
	return &mem.Fetch{ID: id, Type: mem.DataRead, Addr: addr, BankID: bank}
}

func write(id uint64, addr uint64, cfg *config.Config) *mem.Fetch {
	f := read(id, addr, cfg)
	f.Type = mem.DataWrite
	f.SizeBytes = cfg.L2.LineBytes
	return f
}

func newTestPartition(t *testing.T) (*config.Config, *Partition) {
	t.Helper()
	cfg := config.Baseline()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return &cfg, NewPartition(0, &cfg)
}

// runPartition ticks both the L2 and DRAM domains at their real ratio
// (700 MHz vs 924 MHz) and collects replies.
func runPartition(p *Partition, cfg *config.Config, cycles int) []*mem.Fetch {
	var out []*mem.Fetch
	dramPerL2 := cfg.DRAM.ClockMHz / cfg.L2.ClockMHz
	acc := 0.0
	for i := 0; i < cycles; i++ {
		acc += dramPerL2
		for acc >= 1 {
			p.DRAM.Tick()
			acc--
		}
		p.TickL2()
		if f, b, ok := p.NextResponse(); ok {
			p.ConsumeResponse(b)
			out = append(out, f)
		}
	}
	return out
}

func TestMissGoesToDRAMAndFills(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	addr := bankAddr(cfg, b.ID, 0)
	if !b.Accept(read(1, addr, cfg)) {
		t.Fatal("accept failed")
	}
	replies := runPartition(p, cfg, 500)
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	if replies[0].L2Hit {
		t.Error("first access must be an L2 miss")
	}
	if replies[0].SizeBytes != 128 {
		t.Errorf("bad reply: %+v", replies[0])
	}
	if b.Stats.Misses != 1 || b.Stats.Fills != 1 {
		t.Errorf("misses=%d fills=%d", b.Stats.Misses, b.Stats.Fills)
	}
	if !p.Idle() {
		t.Error("partition not idle after drain")
	}
}

func TestSecondAccessHits(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	addr := bankAddr(cfg, b.ID, 0)
	b.Accept(read(1, addr, cfg))
	runPartition(p, cfg, 500)
	b.Accept(read(2, addr, cfg))
	replies := runPartition(p, cfg, 200)
	if len(replies) != 1 {
		t.Fatalf("replies = %d, want 1", len(replies))
	}
	if !replies[0].L2Hit {
		t.Error("second access must hit")
	}
	if b.Stats.Hits != 1 {
		t.Errorf("hits = %d", b.Stats.Hits)
	}
}

func TestMSHRMergingAvoidsDuplicateDRAMTraffic(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	addr := bankAddr(cfg, b.ID, 0)
	// Two cores miss on the same line back to back.
	f1 := read(1, addr, cfg)
	f1.CoreID = 0
	f2 := read(2, addr, cfg)
	f2.CoreID = 5
	b.Accept(f1)
	b.Accept(f2)
	replies := runPartition(p, cfg, 600)
	if len(replies) != 2 {
		t.Fatalf("replies = %d, want 2 (one per requester)", len(replies))
	}
	if b.Stats.Merged != 1 || b.Stats.Misses != 1 {
		t.Errorf("merged=%d misses=%d, want 1/1", b.Stats.Merged, b.Stats.Misses)
	}
	if got := p.DRAM.Stats.Reads; got != 1 {
		t.Errorf("DRAM reads = %d, want 1 (merged)", got)
	}
}

func TestWriteMissAllocatesWithoutFetch(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	addr := bankAddr(cfg, b.ID, 0)
	b.Accept(write(1, addr, cfg))
	runPartition(p, cfg, 100)
	if p.DRAM.Stats.Reads != 0 {
		t.Error("full-line store must not fetch from DRAM")
	}
	// The line must now be resident and dirty: a read hits...
	b.Accept(read(2, addr, cfg))
	replies := runPartition(p, cfg, 200)
	if len(replies) != 1 || !replies[0].L2Hit {
		t.Fatal("read after store must hit in L2")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	// Dirty one set completely, then stream reads through the same set to
	// force dirty evictions. Set stride within a bank: sets × banks lines.
	setStride := cfg.SetsPerL2Bank() * cfg.L2.NumBanks * cfg.L2.LineBytes
	base := bankAddr(cfg, b.ID, 0)
	for w := 0; w < cfg.L2.Ways; w++ {
		b.Accept(write(uint64(w), base+uint64(w*setStride), cfg))
		runPartition(p, cfg, 50)
	}
	// Now read enough new lines in the same set to evict every dirty way.
	for r := 0; r < cfg.L2.Ways; r++ {
		b.Accept(read(100+uint64(r), base+uint64((cfg.L2.Ways+r)*setStride), cfg))
		runPartition(p, cfg, 400)
	}
	if b.Stats.WriteBack == 0 {
		t.Error("dirty evictions must produce write-backs")
	}
	if p.DRAM.Stats.Writes == 0 {
		t.Error("write-backs must reach DRAM")
	}
}

func TestAccessQueueBackpressure(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	accepted := 0
	for i := 0; i < 100; i++ {
		if b.CanAccept() && b.Accept(read(uint64(i), bankAddr(cfg, b.ID, i), cfg)) {
			accepted++
		}
	}
	if accepted != cfg.L2.AccessQueueEntries {
		t.Fatalf("accepted %d, want %d", accepted, cfg.L2.AccessQueueEntries)
	}
}

func TestBpICNTStallWhenResponseQueueFull(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	// Prime a line so reads hit.
	addr := bankAddr(cfg, b.ID, 0)
	b.Accept(read(1, addr, cfg))
	runPartition(p, cfg, 500)
	// Now send hits but never drain the response queue.
	for i := 0; i < 200; i++ {
		if b.CanAccept() {
			b.Accept(read(uint64(10+i), addr, cfg))
		}
		b.Tick() // no NextResponse consumption, no DRAM needed for hits
	}
	if b.Stats.StallCycles[StallBpICNT] == 0 {
		t.Error("full response queue must register bp-ICNT stalls")
	}
}

func TestBpDRAMStallWhenSchedulerQueueFull(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	// Flood with misses but never tick DRAM, so the scheduler queue
	// fills and the miss queue backs up.
	for i := 0; i < 400; i++ {
		if b.CanAccept() {
			b.Accept(read(uint64(i), bankAddr(cfg, b.ID, i), cfg))
		}
		p.TickL2()
	}
	if b.Stats.StallCycles[StallBpDRAM] == 0 {
		t.Error("full DRAM scheduler queue must register bp-DRAM stalls")
	}
}

func TestMSHRStallWhenOutOfEntries(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.MSHREntries = 2
	p := NewPartition(0, &cfg)
	b := p.Banks[0]
	for i := 0; i < 50; i++ {
		if b.CanAccept() {
			b.Accept(read(uint64(i), bankAddr(&cfg, b.ID, i), cfg2(&cfg)))
		}
		p.TickL2() // DRAM never ticks: fills never arrive, MSHRs stay held
	}
	if b.Stats.StallCycles[StallMSHR] == 0 {
		t.Error("exhausted MSHRs must register mshr stalls")
	}
}

func cfg2(c *config.Config) *config.Config { return c }

func TestCacheStallWhenAllWaysReserved(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.MSHREntries = 64
	cfg.L2.MissQueueEntries = 64
	p := NewPartition(0, &cfg)
	b := p.Banks[0]
	// All misses in one set: stride = sets × banks lines.
	setStride := cfg.SetsPerL2Bank() * cfg.L2.NumBanks * cfg.L2.LineBytes
	base := bankAddr(&cfg, b.ID, 0)
	for i := 0; i < 60; i++ {
		if b.CanAccept() {
			b.Accept(read(uint64(i), base+uint64(i*setStride), &cfg))
		}
		p.TickL2() // DRAM never ticks → reservations never release
	}
	if b.Stats.StallCycles[StallCache] == 0 {
		t.Error("set with all ways reserved must register cache stalls")
	}
}

func TestScaledL2PortIsFaster(t *testing.T) {
	run := func(cfg config.Config) int64 {
		p := NewPartition(0, &cfg)
		b := p.Banks[0]
		addr := bankAddr(&cfg, b.ID, 0)
		b.Accept(read(1, addr, &cfg))
		runPartition(p, &cfg, 500)
		// Stream hits through the port.
		sent := 0
		var cycles int64
		for i := 0; sent < 32 || !p.Idle(); i++ {
			if sent < 32 && b.CanAccept() {
				b.Accept(read(uint64(10+sent), addr, &cfg))
				sent++
			}
			p.TickL2()
			if f, bk, ok := p.NextResponse(); ok {
				p.ConsumeResponse(bk)
				_ = f
			}
			cycles++
			if i > 10000 {
				break
			}
		}
		return cycles
	}
	base := run(config.Baseline())
	scaled := run(config.ScaledL2())
	if scaled >= base {
		t.Errorf("scaled L2 (%d cycles) not faster than baseline (%d) on a hit stream", scaled, base)
	}
}

func TestPartitionBankRouting(t *testing.T) {
	cfg, p := newTestPartition(t)
	if len(p.Banks) != 2 {
		t.Fatalf("banks = %d, want 2", len(p.Banks))
	}
	if p.Banks[0].ID != 0 || p.Banks[1].ID != 6 {
		t.Fatalf("bank IDs = %d,%d; want 0,6", p.Banks[0].ID, p.Banks[1].ID)
	}
	// A global bank's place in its partition is its index over the partitions.
	for _, b := range p.Banks {
		if p.Banks[b.ID/cfg.DRAM.NumPartitions] != b {
			t.Fatalf("bank %d not at index %d/%d", b.ID, b.ID, cfg.DRAM.NumPartitions)
		}
	}
}

func TestOccupancyHistogramRecorded(t *testing.T) {
	cfg, p := newTestPartition(t)
	b := p.Banks[0]
	for i := 0; i < 300; i++ {
		if b.CanAccept() {
			b.Accept(read(uint64(i), bankAddr(cfg, b.ID, i%64), cfg))
		}
		p.TickL2()
	}
	if b.Stats.AccessOccupancy.Lifetime == 0 {
		t.Error("access-queue occupancy histogram empty")
	}
	if b.Stats.AccessOccupancy.FullFraction() == 0 {
		t.Error("flooded access queue never observed full")
	}
}

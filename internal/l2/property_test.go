package l2

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
)

// TestBankConservation drives random read/write traffic through a
// partition and checks the structural invariants the stall attribution
// relies on: every read eventually produces exactly one reply per
// requester, replies carry full lines, write traffic produces none, and
// the partition drains to idle.
func TestBankConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := config.Baseline()
		// Randomize the structure sizes within small bounds to stress
		// backpressure paths.
		cfg.L2.AccessQueueEntries = 1 + rng.Intn(8)
		cfg.L2.MissQueueEntries = 2 + rng.Intn(7)
		cfg.L2.ResponseQueueEntries = 1 + rng.Intn(8)
		cfg.L2.MSHREntries = 2 + rng.Intn(31)
		cfg.DRAM.SchedQueueEntries = 1 + rng.Intn(16)
		cfg.DRAM.ReturnQueueEntries = 1 + rng.Intn(8)
		p := NewPartition(0, &cfg)
		b := p.Banks[0]

		dramPerL2 := cfg.DRAM.ClockMHz / cfg.L2.ClockMHz
		acc := 0.0
		sent := 0
		reads := 0
		var replies []*mem.Fetch
		const total = 80
		for cycle := 0; cycle < 60000 && (sent < total || !p.Idle()); cycle++ {
			if sent < total && b.CanAccept() {
				addr := bankAddr(&cfg, b.ID, rng.Intn(24))
				var f *mem.Fetch
				if rng.Intn(3) == 0 {
					f = write(uint64(sent), addr, &cfg)
				} else {
					f = read(uint64(sent), addr, &cfg)
					reads++
				}
				f.CoreID = rng.Intn(15)
				b.Accept(f)
				sent++
			}
			acc += dramPerL2
			for acc >= 1 {
				p.DRAM.Tick()
				acc--
			}
			p.TickL2()
			if f, bk, ok := p.NextResponse(); ok {
				p.ConsumeResponse(bk)
				replies = append(replies, f)
			}
		}
		if sent < total || !p.Idle() {
			t.Logf("seed %d: stuck (sent=%d idle=%v)", seed, sent, p.Idle())
			return false
		}
		if len(replies) != reads {
			t.Logf("seed %d: %d replies for %d reads", seed, len(replies), reads)
			return false
		}
		seen := map[uint64]bool{}
		for _, f := range replies {
			if f.SizeBytes != cfg.L2.LineBytes {
				return false
			}
			if seen[f.ID] {
				return false // duplicate reply
			}
			seen[f.ID] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// TestMergedFillDrainsOnTinyResponseQueue reproduces the regression where
// a fill with more merged requesters than response-queue capacity
// deadlocked the bank.
func TestMergedFillDrainsOnTinyResponseQueue(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.ResponseQueueEntries = 1
	p := NewPartition(0, &cfg)
	b := p.Banks[0]
	addr := bankAddr(&cfg, b.ID, 0)
	// Four requesters merge on one line; the single-entry response queue
	// must be refilled one reply at a time.
	for i := 0; i < 4; i++ {
		f := read(uint64(i), addr, &cfg)
		f.CoreID = i
		if !b.Accept(f) {
			t.Fatalf("accept %d failed", i)
		}
	}
	replies := runPartition(p, &cfg, 3000)
	if len(replies) != 4 {
		t.Fatalf("replies = %d, want 4", len(replies))
	}
	if !p.Idle() {
		t.Fatal("partition did not drain")
	}
	if p.DRAM.Stats.Reads != 1 {
		t.Fatalf("DRAM reads = %d, want 1 (merged)", p.DRAM.Stats.Reads)
	}
}

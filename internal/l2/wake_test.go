package l2

import (
	"math/rand"
	"reflect"
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
)

// TestFrozenReplayIsExact drives two identical banks with one seeded random
// stream of everything that reaches a bank from outside — Accept, Fill,
// PopMiss, PopResponse. Whenever NextWake names a tick beyond the next
// one, the first bank replays the frozen span in closed form (SkipTo,
// then the wake's Tick) and the second ticks through it; they must stay
// identical in every field — statistics, the access-occupancy histogram,
// clock, tags, MSHRs, queues and park memo. The bank is small (one way,
// two MSHRs, two-entry miss and response queues) and its queues are left
// undrained for stretches, so the head parks on each of the five stall
// causes, and each must have been replayed in bulk at least once.
func TestFrozenReplayIsExact(t *testing.T) {
	cfg := config.Baseline()
	cfg.L2.Ways = 1
	cfg.L2.SizeBytes = cfg.L2.NumBanks * cfg.L2.LineBytes * 4 // four sets per bank
	cfg.L2.MSHREntries = 2
	cfg.L2.MSHRMaxMerge = 2
	cfg.L2.MissQueueEntries = 2
	cfg.L2.ResponseQueueEntries = 2
	cfg.L2.AccessQueueEntries = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var replayed [numStallCauses]int64
	var skippedTicks int64
	for seed := int64(0); seed < 16; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := NewBank(0, &cfg), NewBank(0, &cfg)
		var fillsA, fillsB []*mem.Fetch // misses forwarded to "DRAM", awaiting their fill
		var id uint64
		for step := 0; step < 5000; step++ {
			phase := step / 250 % 4 // 0: everything flows; 1: replies stuck; 2: misses stuck; 3: fills withheld
			if r.Intn(3) == 0 && a.CanAccept() {
				id++
				addr := bankAddr(&cfg, 0, r.Intn(12))
				mk := read
				if r.Intn(4) == 0 {
					mk = write
				}
				a.Accept(mk(id, addr, &cfg))
				b.Accept(mk(id, addr, &cfg))
			}
			if phase != 2 && r.Intn(2) == 0 {
				fa, okA := a.PopMiss()
				fb, okB := b.PopMiss()
				if okA != okB {
					t.Fatalf("seed %d step %d: PopMiss %v vs %v", seed, step, okA, okB)
				}
				if okA && fa.Type == mem.DataRead {
					fillsA, fillsB = append(fillsA, fa), append(fillsB, fb)
				}
			}
			if phase != 3 && len(fillsA) > 0 && r.Intn(3) == 0 && a.CanFill(fillsA[0]) {
				a.Fill(fillsA[0])
				b.Fill(fillsB[0])
				fillsA, fillsB = fillsA[1:], fillsB[1:]
			}
			if phase != 1 && r.Intn(2) == 0 {
				_, okA := a.PopResponse()
				_, okB := b.PopResponse()
				if okA != okB {
					t.Fatalf("seed %d step %d: PopResponse %v vs %v", seed, step, okA, okB)
				}
			}
			wake := a.NextWake()
			if wb := b.NextWake(); wb != wake {
				t.Fatalf("seed %d step %d: NextWake %d vs %d", seed, step, wake, wb)
			}
			if wake <= a.now {
				t.Fatalf("seed %d step %d: NextWake %d not after now %d", seed, step, wake, a.now)
			}
			span := int64(1)
			if wake == sched.Never {
				span = 1 + r.Int63n(40) // only an outside input can end it: any span is frozen
			} else if wake > a.now+1 {
				span = wake - a.now
			}
			if span > 1 {
				skippedTicks += span - 1
				if !a.accessQ.Empty() {
					replayed[a.parkedCause] += span - 1
				}
			}
			// A SkipTo at or behind the clock changes nothing: the twins
			// must still agree after it.
			a.SkipTo(a.now - int64(step%2))
			a.SkipTo(a.now + span - 1)
			a.Tick()
			for i := int64(0); i < span; i++ {
				b.Tick()
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d: replaying %d frozen ticks diverged from ticking them:\nskip: %+v\ntick: %+v", seed, step, span-1, a, b)
			}
			if a.Busy() != b.Busy() || a.MSHROcc() != b.MSHROcc() {
				t.Fatalf("seed %d step %d: occupancy probes diverged", seed, step)
			}
		}
	}
	if skippedTicks == 0 {
		t.Error("no tick was ever skipped; the test is vacuous")
	}
	for cause := StallBpICNT; cause < numStallCauses; cause++ {
		if replayed[cause] == 0 {
			t.Errorf("no head parked on %s was ever replayed in bulk", StallLabels[cause-1])
		}
	}
}

package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"gpumembw/internal/sched"
)

// TestFrozenReplayIsExact drives two identical channels with one seeded
// random stream of pushes and response pops. Whenever NextWake names a
// tick beyond the next one, the first channel replays the frozen span in
// closed form (SkipTo, then the wake's Tick) and the second ticks
// through it; they must stay identical in every field — statistics,
// occupancy histograms, clock, bank timing and the memo. The FR-FCFS
// channel runs with a two-entry return queue that is left undrained for
// stretches, so reads wait on a full return queue; the P_DRAM channel
// covers Infinite mode.
func TestFrozenReplayIsExact(t *testing.T) {
	for _, infinite := range []bool{false, true} {
		var skippedTicks, retFullSkips int64
		for seed := int64(0); seed < 8; seed++ {
			cfg := testConfig()
			cfg.DRAM.Infinite = infinite
			cfg.DRAM.InfiniteLatency = 100
			cfg.DRAM.SchedQueueEntries = 6
			cfg.DRAM.ReturnQueueEntries = 2
			r := rand.New(rand.NewSource(seed))
			a, b := NewChannel(0, &cfg), NewChannel(0, &cfg)
			var id uint64
			for step := 0; step < 6000; step++ {
				busy := step/300%2 == 0
				if busy && r.Intn(4) == 0 {
					id++
					// A few rows of a few banks: hits, conflicts and idle banks.
					addr := uint64(r.Intn(4))*uint64(cfg.DRAM.RowBytes)*6 + uint64(r.Intn(64))*128*6
					mk := newRead
					if r.Intn(4) == 0 {
						mk = newWrite
					}
					if okA, okB := a.Push(mk(id, addr)), b.Push(mk(id, addr)); okA != okB {
						t.Fatalf("seed %d step %d: Push %v vs %v", seed, step, okA, okB)
					}
				}
				if drain := step/600%2 == 1 || r.Intn(40) == 0; drain && r.Intn(2) == 0 {
					fa, okA := a.PopResponse()
					fb, okB := b.PopResponse()
					if okA != okB || okA && fa.ID != fb.ID {
						t.Fatalf("seed %d step %d: PopResponse diverged", seed, step)
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
					span = 1 + r.Int63n(40) // only a Push or PopResponse can end it: any span is frozen
				} else if wake > a.now+1 {
					span = wake - a.now
				}
				if span > 1 {
					skippedTicks += span - 1
					if !infinite && a.ret.Full() && len(a.sched) > 0 {
						retFullSkips++
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
					t.Fatalf("infinite=%v seed %d step %d: replaying %d frozen ticks diverged from ticking them:\nskip: %+v\ntick: %+v",
						infinite, seed, step, span-1, a, b)
				}
			}
		}
		if skippedTicks == 0 || !infinite && retFullSkips == 0 {
			t.Errorf("infinite=%v: skipped %d ticks, %d spans with requests queued behind a full return queue; the test is vacuous",
				infinite, skippedTicks, retFullSkips)
		}
	}
}

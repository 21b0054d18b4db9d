package icnt

import (
	"math/rand"
	"reflect"
	"testing"

	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
)

// TestFrozenReplayIsExact drives two identical crossbars with one seeded
// random stream of injections and pops. Whenever NextWake names a tick
// beyond the next one, the first network replays the frozen span in closed
// form (SkipTo, then the wake's Tick) and the second ticks through it;
// they must stay identical in every field — statistics, clock, FIFOs,
// arbitration state. A destination that is never drained for long
// stretches fills its ejection FIFO, so some frozen spans hold a full one.
func TestFrozenReplayIsExact(t *testing.T) {
	var skippedTicks, fullSkips int64
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		srcs, dsts := 1+r.Intn(4), 1+r.Intn(4)
		outCap, latency := 1+r.Intn(2), r.Intn(6)
		a := NewNetwork("twin", srcs, dsts, 16, 6, outCap, latency)
		b := NewNetwork("twin", srcs, dsts, 16, 6, outCap, latency)
		var id uint64
		for step := 0; step < 4000; step++ {
			// A quiet phase and a busy phase alternate; destination 0 is a
			// slow sink during every other busy phase.
			busy := step/200%2 == 0
			for s := 0; s < srcs && busy; s++ {
				if r.Intn(3) == 0 {
					id++
					dst, bytes := r.Intn(dsts), 8+r.Intn(60)
					okA := a.Inject(&mem.Fetch{ID: id}, s, dst, bytes)
					okB := b.Inject(&mem.Fetch{ID: id}, s, dst, bytes)
					if okA != okB {
						t.Fatalf("seed %d step %d: Inject %v vs %v", seed, step, okA, okB)
					}
				}
			}
			for d := 0; d < dsts; d++ {
				if d == 0 && step/400%2 == 0 && r.Intn(50) != 0 {
					continue
				}
				if r.Intn(2) == 0 {
					pa, okA := a.Pop(d)
					pb, okB := b.Pop(d)
					if okA != okB {
						t.Fatalf("seed %d step %d: Pop(%d) %v vs %v", seed, step, d, okA, okB)
					}
					a.Release(pa)
					b.Release(pb)
				}
			}
			wake := a.NextWake()
			if wb := b.NextWake(); wb != wake {
				t.Fatalf("seed %d step %d: NextWake %d vs %d", seed, step, wake, wb)
			}
			if wake <= a.Stats.Cycles {
				t.Fatalf("seed %d step %d: NextWake %d not after the clock %d", seed, step, wake, a.Stats.Cycles)
			}
			span := int64(1)
			if wake == sched.Never {
				span = 1 + r.Int63n(40) // only an Inject or Pop can end it: any span is frozen
			} else if wake > a.Stats.Cycles+1 {
				span = wake - a.Stats.Cycles
			}
			if span > 1 {
				skippedTicks += span - 1
				for _, q := range a.out {
					if q.Full() {
						fullSkips++
						break
					}
				}
			}
			// A SkipTo at or behind the clock changes nothing: the twins
			// must still agree after it.
			a.SkipTo(a.Stats.Cycles - int64(step%2))
			a.SkipTo(a.Stats.Cycles + span - 1)
			a.Tick()
			for i := int64(0); i < span; i++ {
				b.Tick()
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d step %d: replaying %d frozen ticks diverged from ticking them:\nskip: %+v\ntick: %+v", seed, step, span-1, a, b)
			}
		}
	}
	if skippedTicks == 0 || fullSkips == 0 {
		t.Errorf("skipped %d ticks, %d spans with an ejection FIFO full; the test is vacuous", skippedTicks, fullSkips)
	}
}

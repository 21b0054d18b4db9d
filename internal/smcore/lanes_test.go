package smcore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpumembw/internal/cache"
	"gpumembw/internal/config"
)

// TestFillsDrainInScheduleOrder is the fill list's exactness property: for
// any sequence of (cycle, latency) schedules, each cycle's drain is the
// fills due that cycle in the order they were scheduled — a reference sort
// by (due, schedule sequence) — next always names the earliest fill still
// pending, and what a drain leaves behind keeps its schedule order. The
// latencies hold a repeat (two call sites, one latency), the clamped 0 and
// ones in the thousands, as the noLine overflow of Core.landAt schedules.
func TestFillsDrainInScheduleOrder(t *testing.T) {
	type ref struct {
		due int64
		seq int32
	}
	rng := rand.New(rand.NewSource(20170424))
	for trial := 0; trial < 50; trial++ {
		lats := []int64{0, 1, heavyALULatency, heavyALULatency}
		for len(lats) < 9 {
			lats = append(lats, 1+rng.Int63n(6000))
		}
		fs := fills{next: math.MaxInt64}
		var want []ref
		var seq int32
		var got []uint64
		now := int64(0)
		for busy := 400; busy > 0 || len(want) > 0; busy-- {
			now++
			if rng.Intn(8) == 0 && fs.next != math.MaxInt64 {
				// What SkipTo does after NextWake: land one short of the
				// earliest fill, then tick into it.
				now = max(now, fs.next-rng.Int63n(3))
			}
			i := 0
			for i < len(want) && want[i].due == now {
				i++
			}
			if (fs.next <= now) != (i > 0) {
				t.Fatalf("trial %d cycle %d: next = %d with %d fills due", trial, now, fs.next, i)
			}
			if i > 0 {
				got = fs.drain(now, got[:0])
				if len(got) != i {
					t.Fatalf("trial %d cycle %d: drained %d fills, want %d", trial, now, len(got), i)
				}
				for k, line := range got {
					if line != uint64(want[k].seq) {
						t.Fatalf("trial %d cycle %d: drain position %d is schedule #%d, want #%d", trial, now, k, line, want[k].seq)
					}
				}
				want = want[i:]
				if !slices.IsSortedFunc(fs.evts, func(a, b fillEvt) int { return int(a.line) - int(b.line) }) {
					t.Fatalf("trial %d cycle %d: the fills kept lost their schedule order: %v", trial, now, fs.evts)
				}
			}
			if len(want) != len(fs.evts) || len(want) > 0 && fs.next != want[0].due {
				t.Fatalf("trial %d cycle %d: %d pending, next = %d; want %d pending, earliest %v", trial, now, len(fs.evts), fs.next, len(want), want[:min(1, len(want))])
			}
			for n := rng.Intn(4); n > 0 && busy > 0; n-- {
				due := now + max(lats[rng.Intn(len(lats))], 1)
				fs.push(due, uint64(seq)) // the line names the schedule
				want = append(want, ref{due, seq})
				seq++
			}
			// Stable: equal due cycles keep their schedule sequence.
			slices.SortStableFunc(want, func(a, b ref) int { return int(a.due - b.due) })
		}
		if fs.next != math.MaxInt64 {
			t.Fatalf("trial %d: drained list still reports next = %d", trial, fs.next)
		}
	}
}

// TestFillsMissedWakeIsLoud: draining past a due fill panics rather than
// landing it late.
func TestFillsMissedWakeIsLoud(t *testing.T) {
	fs := fills{next: math.MaxInt64}
	fs.push(5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("drain past a due fill did not panic")
		}
	}()
	fs.drain(7, nil)
}

// TestSameCycleICacheFillsKeepScheduleOrder lands a P∞ DRAM-latency fill
// (220) and a later L2-hit-latency fill (120) on one cycle. Fill order is
// the one thing about same-cycle completions the model can observe — it
// stamps the I-cache's LRU — and the next victim must be the line whose
// fill was scheduled first, exactly as ticking through both would have it.
func TestSameCycleICacheFillsKeepScheduleOrder(t *testing.T) {
	cfg := smallConfig()
	cfg.Mode = config.ModeInfiniteBW
	cfg.L1.ICacheSizeBytes = 2 * cfg.L1.LineBytes // one set ...
	cfg.L1.ICacheWays = 2                         // ... of two ways
	wl := streamWorkload(0, 96, 1)                // code spans three lines
	c := NewCore(0, &cfg, wl, testFetchFn())
	lineBytes := uint64(cfg.L1.LineBytes)
	a := c.icache.LineAddr(wl.Program.PCAddr(0))
	b, victimizer := a+lineBytes, a+2*lineBytes
	if last := c.icache.LineAddr(wl.Program.PCAddr(len(wl.Program.Body) - 1)); last < victimizer {
		t.Fatalf("test program too short: last code line %#x", last)
	}

	c.now = 10
	c.iPendingSet(a)
	c.pending.push(c.now+int64(cfg.IdealMemLatency), a)
	c.now += int64(cfg.IdealMemLatency - cfg.IdealL2HitLatency)
	c.iPendingSet(b)
	c.pending.push(c.now+int64(cfg.IdealL2HitLatency), b)
	c.now = 10 + int64(cfg.IdealMemLatency)
	c.applyCompletions()
	if c.icache.Probe(a) != cache.Valid || c.icache.Probe(b) != cache.Valid || anySet(c.iPending) {
		t.Fatalf("both fills must have landed: a=%v b=%v pending=%b", c.icache.Probe(a), c.icache.Probe(b), c.iPending)
	}
	c.icache.Fill(victimizer)
	if c.icache.Probe(a) == cache.Valid || c.icache.Probe(b) != cache.Valid {
		t.Fatalf("victim must be the first-scheduled fill: a=%v b=%v", c.icache.Probe(a), c.icache.Probe(b))
	}
}

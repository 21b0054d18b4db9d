package smcore

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"gpumembw/internal/cache"
	"gpumembw/internal/config"
)

// TestLanesDrainInScheduleOrder is the lanes' exactness property: for any
// sequence of (cycle, latency) schedules over a handful of latencies, each
// cycle's drain is the completions due that cycle in the order they were
// scheduled — a reference sort by (due, schedule sequence). The latency set
// always holds a repeated latency (two call sites, one lane) and a latency
// of 0, which the core clamps to 1.
func TestLanesDrainInScheduleOrder(t *testing.T) {
	type ref struct {
		due int64
		seq int32
	}
	rng := rand.New(rand.NewSource(20170424))
	for trial := 0; trial < 50; trial++ {
		lats := []int64{0, 1, heavyALULatency, heavyALULatency}
		for len(lats) < 9 { // ≤ 7 distinct: 0 and 1 share the clamped lane
			lats = append(lats, 1+rng.Int63n(6000))
		}
		cfg := smallConfig()
		c := NewCore(0, &cfg, streamWorkload(1, 1, 1), testFetchFn())
		var want []ref
		var seq int32
		var got []uint64
		for busy := 400; busy > 0 || len(want) > 0; busy-- {
			c.now++
			if rng.Intn(8) == 0 && c.pending.next != math.MaxInt64 {
				// What SkipTo does after NextWake: land one short of the
				// earliest completion, then tick into it.
				c.now = max(c.now, c.pending.next-rng.Int63n(3))
			}
			i := 0
			for i < len(want) && want[i].due == c.now {
				i++
			}
			if (c.pending.next <= c.now) != (i > 0) {
				t.Fatalf("trial %d cycle %d: next = %d with %d completions due", trial, c.now, c.pending.next, i)
			}
			if i > 0 {
				got = c.pending.drain(c.now, got[:0])
				if len(got) != i {
					t.Fatalf("trial %d cycle %d: drained %d completions, want %d", trial, c.now, len(got), i)
				}
				for k, line := range got {
					if line != uint64(want[k].seq) {
						t.Fatalf("trial %d cycle %d: drain position %d is schedule #%d, want #%d", trial, c.now, k, line, want[k].seq)
					}
				}
				want = want[i:]
			}
			if len(want) > 0 && c.pending.next != want[0].due {
				t.Fatalf("trial %d cycle %d: next = %d, earliest pending is %d", trial, c.now, c.pending.next, want[0].due)
			}
			for n := rng.Intn(4); n > 0 && busy > 0; n-- {
				lat := lats[rng.Intn(len(lats))]
				c.pending.push(c.now, max(lat, 1), uint64(seq)) // the line names the schedule
				want = append(want, ref{c.now + max(lat, 1), seq})
				seq++
			}
			// Stable: equal due cycles keep their schedule sequence.
			slices.SortStableFunc(want, func(a, b ref) int { return int(a.due - b.due) })
		}
		if c.pending.next != math.MaxInt64 {
			t.Fatalf("trial %d: drained calendar still reports next = %d", trial, c.pending.next)
		}
		if n := len(c.pending.delta); n > 7 {
			t.Fatalf("trial %d: %d lanes for 7 distinct latencies", trial, n)
		}
	}
}

// TestLanesMissedWakeIsLoud: draining past a due completion panics rather
// than firing it late.
func TestLanesMissedWakeIsLoud(t *testing.T) {
	ls := lanes{next: math.MaxInt64}
	ls.push(0, 5, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("drain past a due completion did not panic")
		}
	}()
	ls.drain(7, nil)
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
	c.pending.push(c.now, int64(cfg.IdealMemLatency), a)
	c.now += int64(cfg.IdealMemLatency - cfg.IdealL2HitLatency)
	c.iPendingSet(b)
	c.pending.push(c.now, int64(cfg.IdealL2HitLatency), b)
	c.now = 10 + int64(cfg.IdealMemLatency)
	c.applyCompletions()
	if c.icache.Probe(a) != cache.Valid || c.icache.Probe(b) != cache.Valid || c.iPendingCount != 0 {
		t.Fatalf("both fills must have landed: a=%v b=%v pending=%d", c.icache.Probe(a), c.icache.Probe(b), c.iPendingCount)
	}
	c.icache.Fill(victimizer)
	if c.icache.Probe(a) == cache.Valid || c.icache.Probe(b) != cache.Valid {
		t.Fatalf("victim must be the first-scheduled fill: a=%v b=%v", c.icache.Probe(a), c.icache.Probe(b))
	}
}

package stats

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestOccupancyBuckets(t *testing.T) {
	var h OccupancyHist
	// Capacity 8: occupancy 1 → (0-25%); 2,3 → [25-50%) (25% inclusive per
	// the paper's bracket notation); 4,5 → [50-75%); 6,7 → [75-100%);
	// 8 → 100%.
	for occ, want := range map[int]int{1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4} {
		before := h.Buckets[want]
		h.Observe(occ, 8)
		if h.Buckets[want] != before+1 {
			t.Errorf("occupancy %d/8 landed in wrong bucket (want bucket %d): %v", occ, want, h.Buckets)
		}
	}
	if h.Lifetime != 8 {
		t.Errorf("lifetime = %d, want 8", h.Lifetime)
	}
}

func TestOccupancyIgnoresEmptyAndUnbounded(t *testing.T) {
	var h OccupancyHist
	h.Observe(0, 8)  // empty: outside usage lifetime
	h.Observe(5, 0)  // unbounded queue
	h.Observe(-1, 8) // defensive
	if h.Lifetime != 0 {
		t.Errorf("lifetime = %d, want 0", h.Lifetime)
	}
}

func TestOccupancyFullFraction(t *testing.T) {
	var h OccupancyHist
	for i := 0; i < 46; i++ {
		h.Observe(8, 8)
	}
	for i := 0; i < 54; i++ {
		h.Observe(4, 8)
	}
	if got := h.FullFraction(); got != 0.46 {
		t.Errorf("full fraction = %g, want 0.46", got)
	}
	fr := h.Fractions()
	sum := 0.0
	for _, f := range fr {
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("fractions sum = %g, want 1", sum)
	}
}

func TestOccupancyInvariants(t *testing.T) {
	f := func(samples []uint16, cap8 uint8) bool {
		capacity := int(cap8%31) + 1
		var h OccupancyHist
		var expectLifetime int64
		for _, s := range samples {
			occ := int(s % uint16(capacity+2)) // sometimes over capacity
			h.Observe(occ, capacity)
			if occ > 0 {
				expectLifetime++
			}
		}
		var total int64
		for _, b := range h.Buckets {
			if b < 0 {
				return false
			}
			total += b
		}
		return total == h.Lifetime && h.Lifetime == expectLifetime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyMerge(t *testing.T) {
	var a, b OccupancyHist
	a.Observe(8, 8)
	b.Observe(1, 8)
	b.Observe(8, 8)
	a.Merge(&b)
	if a.Lifetime != 3 || a.Buckets[4] != 2 || a.Buckets[0] != 1 {
		t.Errorf("merge wrong: %+v", a)
	}
}

func TestLatencySampler(t *testing.T) {
	var s LatencySampler
	s.Add(100)
	s.Add(200)
	s.Add(300)
	if s.Mean() != 200 {
		t.Errorf("mean = %g, want 200", s.Mean())
	}
	s.Add(-5) // ignored
	if s.Count != 3 {
		t.Errorf("negative sample must be ignored, count = %d", s.Count)
	}
	var empty LatencySampler
	if empty.Mean() != 0 {
		t.Error("empty sampler mean must be 0")
	}
	var other LatencySampler
	other.Add(1000)
	s.Merge(&other)
	if s.Count != 4 || s.Sum != 1600 {
		t.Errorf("merge wrong: %+v", s)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("data-MEM", "data-ALU", "str-MEM", "str-ALU", "fetch")
	b.Add(2, 71)
	b.Add(0, 15)
	b.Add(4, 8)
	b.Add(1, 5)
	b.Add(3, 1)
	if b.Total() != 100 {
		t.Errorf("total = %d", b.Total())
	}
	fr := b.Fractions()
	if fr[2] != 0.71 {
		t.Errorf("str-MEM fraction = %g", fr[2])
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("ratio with zero denominator must be 0")
	}
	if Ratio(1, 2) != 0.5 {
		t.Error("ratio wrong")
	}
}

// TestObserveNIsRepeatedObserve is the closed-form replay's proof for the
// histogram (obsv.RecordN's twin): n cycles at one occupancy must leave
// exactly what n Observe calls leave, for every occupancy of every
// capacity a queue can have here, and for the ignored cases too.
func TestObserveNIsRepeatedObserve(t *testing.T) {
	for capacity := -1; capacity <= 64; capacity++ {
		for occ := -1; occ <= max(capacity, 1); occ++ {
			for _, n := range []int64{1, 2, 7, 1000} {
				var bulk, loop OccupancyHist
				// A histogram already in use: the LUT is built, counts are non-zero.
				for _, h := range []*OccupancyHist{&bulk, &loop} {
					h.Observe(1, capacity)
					h.Observe(capacity, capacity)
				}
				bulk.ObserveN(occ, capacity, n)
				for i := int64(0); i < n; i++ {
					loop.Observe(occ, capacity)
				}
				if !reflect.DeepEqual(bulk, loop) {
					t.Fatalf("ObserveN(%d, %d, %d) = %+v, %d Observes = %+v", occ, capacity, n, bulk, n, loop)
				}
			}
		}
	}
}

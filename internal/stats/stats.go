// Package stats provides the measurement primitives behind every figure of
// the paper: bucketed queue-occupancy histograms (Figs. 4–5), latency
// samplers (the AML and L2-AHL series of Fig. 1), and stall-cycle breakdown
// vectors (Figs. 7–9).
package stats

// OccupancyBuckets is the number of occupancy bands in the paper's queue
// histograms: (0–25%), [25–50%), [50–75%), [75–100%), and exactly 100%.
const OccupancyBuckets = 5

// BucketLabels are the band labels used by Figs. 4 and 5.
var BucketLabels = [OccupancyBuckets]string{"(0-25%)", "[25-50%)", "[50-75%)", "[75-100%)", "100%"}

// OccupancyHist accumulates a queue-occupancy histogram over the queue's
// "usage lifetime" — the cycles during which it holds at least one entry,
// exactly as defined in §IV of the paper.
type OccupancyHist struct {
	Buckets  [OccupancyBuckets]int64
	Lifetime int64 // cycles with occupancy ≥ 1

	// lut maps occupancy → bucket for the capacity this histogram observes
	// (constant per call site), replacing the per-cycle division on the
	// hot path with a table load.
	lut []uint8
}

// Observe records one cycle with the given occupancy out of capacity.
// Cycles with zero occupancy are outside the usage lifetime and ignored,
// as are unbounded queues (capacity ≤ 0).
func (h *OccupancyHist) Observe(occupancy, capacity int) {
	if occupancy <= 0 || capacity <= 0 {
		return
	}
	h.Lifetime++
	if occupancy >= capacity {
		h.Buckets[4]++
		return
	}
	if len(h.lut) != capacity {
		h.lut = make([]uint8, capacity)
		for o := 1; o < capacity; o++ {
			b := 4 * o / capacity
			if b > 3 {
				b = 3
			}
			h.lut[o] = uint8(b)
		}
	}
	h.Buckets[h.lut[occupancy]]++
}

// ObserveN records n cycles at one occupancy — exactly n Observe calls,
// for a unit replaying a span in which its queue stood frozen.
func (h *OccupancyHist) ObserveN(occupancy, capacity int, n int64) {
	if n <= 0 || occupancy <= 0 || capacity <= 0 {
		return
	}
	h.Observe(occupancy, capacity) // the first cycle; it also builds the table
	band := 4
	if occupancy < capacity {
		band = int(h.lut[occupancy])
	}
	h.Lifetime += n - 1
	h.Buckets[band] += n - 1
}

// Fractions returns each bucket as a fraction of the usage lifetime.
func (h *OccupancyHist) Fractions() [OccupancyBuckets]float64 {
	var out [OccupancyBuckets]float64
	if h.Lifetime == 0 {
		return out
	}
	for i, b := range h.Buckets {
		out[i] = float64(b) / float64(h.Lifetime)
	}
	return out
}

// FullFraction returns the fraction of the usage lifetime the queue was
// completely full (the black bars of Figs. 4–5).
func (h *OccupancyHist) FullFraction() float64 {
	if h.Lifetime == 0 {
		return 0
	}
	return float64(h.Buckets[4]) / float64(h.Lifetime)
}

// Merge adds other into h.
func (h *OccupancyHist) Merge(other *OccupancyHist) {
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
	h.Lifetime += other.Lifetime
}

// LatencySampler accumulates a latency distribution summary.
type LatencySampler struct {
	Count int64
	Sum   int64
}

// Add records one latency sample.
func (s *LatencySampler) Add(lat int64) {
	if lat < 0 {
		return
	}
	s.Count++
	s.Sum += lat
}

// Mean returns the average sample, or 0 if none were recorded.
func (s *LatencySampler) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Merge adds other into s.
func (s *LatencySampler) Merge(other *LatencySampler) {
	s.Count += other.Count
	s.Sum += other.Sum
}

// Ratio returns num/den, or 0 when den is 0. It keeps metric code free of
// divide-by-zero guards.
func Ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Breakdown is a labeled stall-cycle distribution (Figs. 7, 8 and 9).
type Breakdown struct {
	Labels []string
	Counts []int64
}

// NewBreakdown creates a Breakdown with the given category labels.
func NewBreakdown(labels ...string) *Breakdown {
	return &Breakdown{Labels: labels, Counts: make([]int64, len(labels))}
}

// Add increments category i by n.
func (b *Breakdown) Add(i int, n int64) {
	b.Counts[i] += n
}

// Total returns the sum over all categories.
func (b *Breakdown) Total() int64 {
	var t int64
	for _, c := range b.Counts {
		t += c
	}
	return t
}

// Fractions returns each category as a fraction of the total.
func (b *Breakdown) Fractions() []float64 {
	out := make([]float64, len(b.Counts))
	t := b.Total()
	if t == 0 {
		return out
	}
	for i, c := range b.Counts {
		out[i] = float64(c) / float64(t)
	}
	return out
}

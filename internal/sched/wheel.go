// Package sched provides the scheduling primitive of the calendar-queue
// event engine: a calendar wheel ordering unit wake-ups by cycle with a
// deterministic tie-break, so the engine advances straight to the earliest
// pending event instead of ticking every unit every cycle. What a unit
// answers when asked for its wake is the unit's own business: every
// NextWake of the hierarchy names a cycle of the unit's own clock, or Never.
package sched

import "math"

// Never is the wake cycle of a unit that can never act again on its own
// (a drained core, an empty network): it sleeps until an external input
// reschedules it, or forever.
const Never = int64(math.MaxInt64)

// Wheel is a calendar queue over small integer unit IDs. Each bucket
// collects the IDs scheduled for one cycle residue; Due drains the current
// cycle's bucket in ascending ID order, which is the engine's deterministic
// tie-break (it matches the ID-order unit loop of the tick engine exactly).
//
// Rescheduling is lazy: Schedule overwrites the authoritative per-ID wake
// cycle and appends a fresh bucket entry; stale entries are dropped when
// their bucket drains. Wakes beyond the wheel's horizon are clamped to it —
// safe under the one-sided wake contract, since a unit woken early
// reschedules.
type Wheel struct {
	buckets [][]int32
	mask    int64
	wake    []int64 // authoritative wake cycle per ID; Never = unscheduled
	now     int64   // last cycle drained by Due
	minHint int64   // lower bound on the earliest scheduled cycle
	live    int
}

// NewWheel builds a wheel with at least the given horizon (rounded up to a
// power of two) covering ids units, none scheduled.
func NewWheel(horizon, ids int) *Wheel {
	size := 1
	for size < horizon {
		size <<= 1
	}
	w := &Wheel{
		buckets: make([][]int32, size),
		mask:    int64(size - 1),
		wake:    make([]int64, ids),
		minHint: Never,
	}
	for i := range w.wake {
		w.wake[i] = Never
	}
	return w
}

// Live returns the number of currently scheduled units.
func (w *Wheel) Live() int { return w.live }

// ScheduledAt returns the cycle id is scheduled to wake at, or Never.
func (w *Wheel) ScheduledAt(id int32) int64 { return w.wake[id] }

// Schedule (re)schedules id to wake at cycle. Cycles beyond the wheel's
// horizon are clamped to its edge (an early wake, which the one-sided wake
// contract makes harmless). Scheduling at an id's current wake cycle is a
// no-op; Never unschedules the id.
func (w *Wheel) Schedule(id int32, cycle int64) {
	if cycle == Never {
		if w.wake[id] != Never {
			w.wake[id] = Never
			w.live--
		}
		return
	}
	if max := w.now + w.mask; cycle > max {
		cycle = max
	}
	if w.wake[id] == cycle {
		return
	}
	if w.wake[id] == Never {
		w.live++
	}
	w.wake[id] = cycle
	b := cycle & w.mask
	w.buckets[b] = append(w.buckets[b], id)
	if cycle < w.minHint {
		w.minHint = cycle
	}
}

// Due appends to dst the IDs scheduled at exactly cycle, in ascending ID
// order, unscheduling them. Entries for other cycles sharing the bucket
// stay; stale entries (superseded by a reschedule) are dropped.
func (w *Wheel) Due(cycle int64, dst []int32) []int32 {
	w.now = cycle
	b := cycle & w.mask
	bucket := w.buckets[b]
	if len(bucket) == 0 {
		return dst
	}
	keep := bucket[:0]
	for _, id := range bucket {
		switch w.wake[id] {
		case cycle:
			w.wake[id] = Never
			w.live--
			dst = append(dst, id)
		case Never:
			// Stale duplicate of an ID already collected (or unscheduled).
		default:
			if w.wake[id]&w.mask == b {
				keep = append(keep, id) // future cycle, same residue
			}
		}
	}
	w.buckets[b] = keep
	// Ascending-ID tie order; buckets are tiny, insertion sort suffices.
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// Min returns the earliest scheduled cycle, or Never when nothing is
// scheduled. It advances the wheel's lower-bound hint as it scans, so
// repeated calls stay cheap.
func (w *Wheel) Min() int64 {
	if w.live == 0 {
		w.minHint = Never
		return Never
	}
	if w.minHint <= w.now {
		w.minHint = w.now + 1
	}
	for c := w.minHint; ; c++ {
		for _, id := range w.buckets[c&w.mask] {
			if w.wake[id] == c {
				w.minHint = c
				return c
			}
		}
	}
}

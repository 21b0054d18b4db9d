// Package sched provides the scheduling primitive of the event engine's
// core clock: a wake array ordering unit wake-ups by cycle with a
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

// Wheel is the wake array of one clock: per small integer unit ID the cycle
// the unit must next run at, and a running minimum over them. A machine has
// tens of units per clock, so one scan in ascending ID order — the engine's
// deterministic tie-break, which matches the ID-order unit loop of the tick
// engine exactly — is all the ordering a due cycle needs.
type Wheel struct {
	wake []int64 // per ID; Never = unscheduled
	min  int64   // a lower bound on wake's entries, exact after each scanning Due
}

// NewWheel builds a wake array covering ids units, none scheduled. The first
// argument is ignored: benchmark/probes.go still passes the horizon of the
// calendar queue this array replaced.
func NewWheel(_ int, ids int) *Wheel {
	w := &Wheel{wake: make([]int64, ids), min: Never}
	for i := range w.wake {
		w.wake[i] = Never
	}
	return w
}

// ScheduledAt returns the cycle id is scheduled to wake at, or Never.
func (w *Wheel) ScheduledAt(id int32) int64 { return w.wake[id] }

// Schedule (re)schedules id to wake at cycle; Never unschedules it.
func (w *Wheel) Schedule(id int32, cycle int64) {
	w.wake[id] = cycle
	w.min = min(w.min, cycle)
}

// Due appends to dst the IDs whose wake cycle has come (is at most cycle),
// in ascending ID order, unscheduling them.
func (w *Wheel) Due(cycle int64, dst []int32) []int32 {
	if w.min > cycle {
		return dst
	}
	w.min = Never
	for id, at := range w.wake {
		if at <= cycle {
			w.wake[id] = Never
			dst = append(dst, int32(id))
		} else {
			w.min = min(w.min, at)
		}
	}
	return dst
}

// Min returns the earliest scheduled cycle, or Never when nothing is
// scheduled: exact after a Due and the Schedules that follow it, a lower
// bound once one of them moved a unit later or unscheduled it.
func (w *Wheel) Min() int64 { return w.min }

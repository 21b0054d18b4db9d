package sched

import (
	"reflect"
	"testing"
)

func due(w *Wheel, cycle int64) []int32 {
	return w.Due(cycle, nil)
}

// TestWheelTieOrder pins the engine's determinism contract: units waking
// at the same cycle drain in ascending ID order regardless of the order
// they were scheduled in — with IDs on both sides of 64, the word boundary
// of the engine's occupancy masks — and a drained unit stays unscheduled.
func TestWheelTieOrder(t *testing.T) {
	w := NewWheel(0, 130)
	for _, id := range []int32{70, 2, 129, 0, 64, 63, 4} {
		w.Schedule(id, 5)
	}
	w.Schedule(65, 6)
	if got, want := due(w, 5), []int32{0, 2, 4, 63, 64, 70, 129}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(5) = %v; want ascending IDs %v", got, want)
	}
	if got := w.ScheduledAt(64); got != Never {
		t.Fatalf("ScheduledAt(64) = %d after draining; want Never", got)
	}
	if got := due(w, 5); len(got) != 0 {
		t.Fatalf("second Due(5) = %v; want empty", got)
	}
	if got, want := due(w, 6), []int32{65}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(6) = %v; want %v", got, want)
	}
}

// TestWheelReschedule verifies that rescheduling supersedes the old wake,
// later and earlier: the unit wakes once, at the newest cycle.
func TestWheelReschedule(t *testing.T) {
	w := NewWheel(0, 4)
	w.Schedule(1, 3)
	w.Schedule(1, 6) // later: supersedes cycle 3
	w.Schedule(2, 3)
	if got, want := due(w, 3), []int32{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(3) = %v; want %v", got, want)
	}
	if got, want := due(w, 6), []int32{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(6) = %v; want %v", got, want)
	}
	w.Schedule(3, 9)
	w.Schedule(3, 7) // earlier: supersedes cycle 9
	if got := due(w, 7); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("Due(7) = %v; want [3]", got)
	}
	if got := due(w, 9); len(got) != 0 {
		t.Fatalf("Due(9) = %v; want empty (the superseded wake must not fire)", got)
	}
}

// TestWheelMin verifies the earliest-event query: exact after a Due, the
// running minimum after a Schedule — so only ever a lower bound once a unit
// was rescheduled later — and arbitrarily far ahead, since no horizon
// bounds a wake.
func TestWheelMin(t *testing.T) {
	w := NewWheel(0, 4)
	if w.Min() != Never {
		t.Fatalf("Min() of empty wheel = %d; want Never", w.Min())
	}
	w.Schedule(0, 1<<40)
	w.Schedule(1, 2)
	if got := w.Min(); got != 2 {
		t.Fatalf("Min() = %d; want 2", got)
	}
	w.Schedule(1, 8) // later: Min may keep the lower bound 2
	if got := w.Min(); got > 8 {
		t.Fatalf("Min() after rescheduling later = %d; want a lower bound on 8", got)
	}
	if got := due(w, 2); len(got) != 0 {
		t.Fatalf("Due(2) = %v; want empty", got)
	}
	if got := w.Min(); got != 8 {
		t.Fatalf("Min() after Due = %d; want exactly 8", got)
	}
	due(w, 8)
	if got := w.Min(); got != 1<<40 {
		t.Fatalf("Min() after drain = %d; want 1<<40", got)
	}
	if got, want := due(w, 1<<40), []int32{0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(1<<40) = %v; want %v", got, want)
	}
	if got := w.Min(); got != Never {
		t.Fatalf("Min() after all drained = %d; want Never", got)
	}
}

// TestWheelUnschedule verifies Schedule(id, Never) removes a pending wake.
func TestWheelUnschedule(t *testing.T) {
	w := NewWheel(0, 2)
	w.Schedule(0, 3)
	w.Schedule(0, Never)
	if got := w.ScheduledAt(0); got != Never {
		t.Fatalf("ScheduledAt(0) = %d after unschedule; want Never", got)
	}
	if got := due(w, 3); len(got) != 0 {
		t.Fatalf("Due(3) = %v; want empty", got)
	}
	if got := w.Min(); got != Never {
		t.Fatalf("Min() = %d after unschedule and Due; want Never", got)
	}
}

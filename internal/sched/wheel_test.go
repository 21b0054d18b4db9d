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
// they were scheduled in.
func TestWheelTieOrder(t *testing.T) {
	w := NewWheel(16, 10)
	for _, id := range []int32{7, 2, 9, 0, 4} {
		w.Schedule(id, 5)
	}
	if got, want := due(w, 5), []int32{0, 2, 4, 7, 9}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(5) = %v; want ascending IDs %v", got, want)
	}
	if w.Live() != 0 {
		t.Fatalf("Live() = %d after draining; want 0", w.Live())
	}
}

// TestWheelReschedule verifies that rescheduling supersedes the old entry:
// the unit wakes once, at the newest cycle, and the stale bucket entry is
// dropped when its bucket drains.
func TestWheelReschedule(t *testing.T) {
	w := NewWheel(16, 4)
	w.Schedule(1, 3)
	w.Schedule(1, 6) // supersedes cycle 3
	w.Schedule(2, 3)
	if got, want := due(w, 3), []int32{2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(3) = %v; want %v", got, want)
	}
	if got, want := due(w, 6), []int32{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Due(6) = %v; want %v", got, want)
	}
	// Rescheduling to the earlier cycle again must also supersede.
	w.Schedule(3, 9)
	w.Schedule(3, 7)
	if got := due(w, 7); !reflect.DeepEqual(got, []int32{3}) {
		t.Fatalf("Due(7) = %v; want [3]", got)
	}
	if got := due(w, 9); len(got) != 0 {
		t.Fatalf("Due(9) = %v; want empty (stale entry must not fire)", got)
	}
}

// TestWheelMin verifies the earliest-event query and its advance across
// drains.
func TestWheelMin(t *testing.T) {
	w := NewWheel(16, 4)
	if w.Min() != Never {
		t.Fatalf("Min() of empty wheel = %d; want Never", w.Min())
	}
	w.Schedule(0, 10)
	w.Schedule(1, 2)
	if got := w.Min(); got != 2 {
		t.Fatalf("Min() = %d; want 2", got)
	}
	due(w, 2)
	if got := w.Min(); got != 10 {
		t.Fatalf("Min() after drain = %d; want 10", got)
	}
	due(w, 10)
	if got := w.Min(); got != Never {
		t.Fatalf("Min() after all drained = %d; want Never", got)
	}
}

// TestWheelHorizonClamp verifies that a wake beyond the wheel's horizon is
// clamped to its edge — an early wake, which the one-sided wake contract makes
// harmless — instead of aliasing into a past bucket.
func TestWheelHorizonClamp(t *testing.T) {
	w := NewWheel(8, 2)
	due(w, 4) // advance the wheel clock
	w.Schedule(0, 4+1000)
	got := w.ScheduledAt(0)
	if got <= 4 || got > 4+7 {
		t.Fatalf("far wake scheduled at %d; want within (4, 11]", got)
	}
	if w.Min() != got {
		t.Fatalf("Min() = %d; want the clamped wake %d", w.Min(), got)
	}
}

// TestWheelUnschedule verifies Schedule(id, Never) removes a pending wake.
func TestWheelUnschedule(t *testing.T) {
	w := NewWheel(8, 2)
	w.Schedule(0, 3)
	w.Schedule(0, Never)
	if w.Live() != 0 {
		t.Fatalf("Live() = %d after unschedule; want 0", w.Live())
	}
	if got := due(w, 3); len(got) != 0 {
		t.Fatalf("Due(3) = %v; want empty", got)
	}
}

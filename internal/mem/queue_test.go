package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestQueueFIFOOrder(t *testing.T) {
	q := NewQueue[int](4)
	for i := 0; i < 4; i++ {
		if !q.Push(i) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full queue succeeded")
	}
	if !q.Full() || q.Len() != 4 || q.Free() != 0 {
		t.Fatalf("full queue state wrong: len=%d free=%d", q.Len(), q.Free())
	}
	for i := 0; i < 4; i++ {
		v, ok := q.Pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
}

func TestQueueWraparound(t *testing.T) {
	q := NewQueue[int](3)
	next := 0
	for round := 0; round < 10; round++ {
		for q.Push(next) {
			next++
		}
		v, ok := q.Pop()
		if !ok {
			t.Fatal("pop failed")
		}
		want := next - q.Len() - 1
		if v != want {
			t.Fatalf("round %d: pop = %d, want %d", round, v, want)
		}
	}
}

func TestQueueUnbounded(t *testing.T) {
	q := NewQueue[int](0)
	for i := 0; i < 1000; i++ {
		if !q.Push(i) {
			t.Fatalf("unbounded push %d rejected", i)
		}
	}
	if q.Full() {
		t.Fatal("unbounded queue reports full")
	}
	for i := 0; i < 1000; i++ {
		if v, _ := q.Pop(); v != i {
			t.Fatalf("pop = %d, want %d", v, i)
		}
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue[string](4)
	q.Push("a")
	q.Push("b")
	q.Push("c")
	if v, ok := q.Peek(); !ok || v != "a" {
		t.Fatalf("peek = %q", v)
	}
	if q.Len() != 3 {
		t.Fatal("peek must not consume")
	}
}

// TestQueueAgainstReference drives a bounded queue with a random operation
// sequence and checks it against a plain-slice reference model.
func TestQueueAgainstReference(t *testing.T) {
	f := func(capacity8 uint8, ops []uint8) bool {
		capacity := int(capacity8%15) + 1
		q := NewQueue[int](capacity)
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0: // push
				got := q.Push(next)
				want := len(ref) < capacity
				if got != want {
					return false
				}
				if want {
					ref = append(ref, next)
				}
				next++
			case 1: // pop
				v, ok := q.Pop()
				if ok != (len(ref) > 0) {
					return false
				}
				if ok {
					if v != ref[0] {
						return false
					}
					ref = ref[1:]
				}
			case 2: // peek
				if v, ok := q.Peek(); ok != (len(ref) > 0) || ok && v != ref[0] {
					return false
				}
			}
			if q.Len() != len(ref) {
				return false
			}
		}
		for _, w := range ref {
			if v, _ := q.Pop(); v != w {
				return false
			}
		}
		return q.Empty()
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

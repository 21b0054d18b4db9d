package smcore

import (
	"fmt"
	"math"
	"slices"

	"gpumembw/internal/mem"
)

// lanes is the core's calendar of scheduled L1I fills (the ideal modes';
// in ModeNormal a fill is a reply packet): one FIFO per distinct latency,
// a handful, sorted by descending latency. Register results are no events
// (warp.ready stores the cycle) unless out of Core.landAt's reach.
// The clock never runs backwards, so one lane's due cycles never decrease
// and its head is its earliest event; and of two fills due the same
// cycle the longer latency was scheduled first, so draining the lanes in
// order replays schedule order — which the I-cache's LRU stamps can
// observe. There is no horizon: any latency simulates.
type lanes struct {
	next  int64   // earliest lane head; math.MaxInt64 with nothing pending
	delta []int64 // each lane's latency, descending
	due   []int64 // each lane's head; math.MaxInt64 when the lane is empty
	// q holds each lane's pending fills. The queues grow by doubling
	// and stay grown, so steady-state scheduling does not allocate; delta
	// and due sit apart from them so that push's lane search and drain's
	// scan for due lanes each read one cache line.
	q []mem.Queue[laneEvt]
}

type laneEvt struct {
	due  int64
	line uint64
}

// push schedules line's fill for cycle now+delta, opening the lane on a
// latency's first use.
func (ls *lanes) push(now, delta int64, line uint64) {
	// The short latencies are the frequent ones: search from the tail.
	i := len(ls.delta) - 1
	for i >= 0 && ls.delta[i] < delta {
		i--
	}
	if i < 0 || ls.delta[i] != delta {
		i++
		ls.delta = slices.Insert(ls.delta, i, delta)
		ls.due = slices.Insert(ls.due, i, math.MaxInt64)
		ls.q = slices.Insert(ls.q, i, mem.Queue[laneEvt]{})
	}
	due := now + delta
	ls.q[i].Push(laneEvt{due, line})
	ls.due[i] = min(ls.due[i], due)
	ls.next = min(ls.next, due)
}

// drain appends to dst, in schedule order, every line whose fill is due
// at now. A fill already past due means a wake was missed (SkipTo jumped
// over an event NextWake should have named): that panics.
func (ls *lanes) drain(now int64, dst []uint64) []uint64 {
	if ls.next < now {
		panic(fmt.Sprintf("smcore: fill due at cycle %d missed (now %d)", ls.next, now))
	}
	next := int64(math.MaxInt64)
	for i, due := range ls.due {
		if due == now {
			q := &ls.q[i]
			for due == now {
				e, _ := q.Pop()
				dst = append(dst, e.line)
				if h, ok := q.Peek(); ok {
					due = h.due
				} else {
					due = math.MaxInt64
				}
			}
			ls.due[i] = due
		}
		next = min(next, due)
	}
	ls.next = next
	return dst
}

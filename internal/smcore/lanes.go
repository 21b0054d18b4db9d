package smcore

import (
	"fmt"
	"math"
)

// fills is the core's schedule-ordered list of pending L1I fills (the
// ideal modes'; in ModeNormal a fill is a reply packet): one per code line
// in flight, a handful. Register results are no events (warp.ready stores
// the cycle) unless out of Core.landAt's reach. Two fills due the same
// cycle land in schedule order, which the I-cache's LRU stamps can
// observe. There is no horizon: any latency simulates.
type fills struct {
	next int64 // earliest due cycle; math.MaxInt64 with nothing pending
	evts []fillEvt
}

type fillEvt struct {
	due  int64
	line uint64
}

// push schedules line's fill for cycle due.
func (fs *fills) push(due int64, line uint64) {
	fs.evts = append(fs.evts, fillEvt{due, line})
	fs.next = min(fs.next, due)
}

// drain appends to dst every line whose fill is due at now and keeps the
// rest, both in schedule order. A fill already past due means a wake was
// missed (SkipTo jumped over an event NextWake should have named): that
// panics.
func (fs *fills) drain(now int64, dst []uint64) []uint64 {
	if fs.next < now {
		panic(fmt.Sprintf("smcore: fill due at cycle %d missed (now %d)", fs.next, now))
	}
	fs.next = math.MaxInt64
	keep := fs.evts[:0]
	for _, e := range fs.evts {
		if e.due == now {
			dst = append(dst, e.line)
		} else {
			keep = append(keep, e)
			fs.next = min(fs.next, e.due)
		}
	}
	fs.evts = keep
	return dst
}

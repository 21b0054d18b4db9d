package main

import (
	"container/heap"
	"runtime"
	"time"
)

// The calibration kernel is a small discrete-event loop over a heap, a map
// and a slice — the data structures the simulator's host time goes to —
// with a fixed amount of work. It imports nothing from the program under
// test and must never change: it is timed before and after every pass,
// so a change in its time is a change in the machine, not in the
// simulator. Runs whose calibration spread is too wide mark their
// host-time metrics unresolved.

type calibEvent struct {
	at uint64
	id uint32
}

type calibHeap []calibEvent

func (h calibHeap) Len() int           { return len(h) }
func (h calibHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calibHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calibHeap) Push(x any)        { *h = append(*h, x.(calibEvent)) }
func (h *calibHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

const (
	calibUnits  = 4096
	calibEvents = 140_000
)

// calibSpreadLimit is the calibration spread above which host time in the
// run is not trusted.
const calibSpreadLimit = 0.10

// calibRefMs is the kernel's time on the reference machine speed that
// host-clock metrics are restated at: about what this sandbox gives when
// it is quiet.
const calibRefMs = 32.0

// calibKernel runs the frozen loop and returns a checksum, so the work
// cannot be optimised away and a miscompiled kernel shows.
func calibKernel() uint64 {
	h := make(calibHeap, 0, calibUnits)
	state := make([]uint64, calibUnits)
	seen := make(map[uint64]uint32, calibUnits)
	x := uint64(0x9e3779b97f4a7c15)
	for i := uint32(0); i < calibUnits; i++ {
		x = splitmix(x)
		heap.Push(&h, calibEvent{at: x % 1024, id: i})
	}
	var sum uint64
	for n := 0; n < calibEvents; n++ {
		e := heap.Pop(&h).(calibEvent)
		x = splitmix(x ^ uint64(e.id))
		state[e.id] += x & 0xff
		seen[x%calibUnits]++
		sum += state[e.id] + uint64(seen[x%calibUnits])
		heap.Push(&h, calibEvent{at: e.at + 1 + x%512, id: e.id})
	}
	return sum
}

// calibChecksum is what calibKernel returns; a different value means the
// kernel was edited.
const calibChecksum = 0x12dace27

// calibrator collects the kernel's timings over one run.
type calibrator struct {
	ms []float64
}

// sample times the kernel three times and keeps the fastest: on a shared
// machine single timings of a few tens of milliseconds scatter by nearly a
// tenth on their own, and only what is left after that is drift.
func (c *calibrator) sample() {
	runtime.GC() // the garbage of the pass before is not the kernel's to collect
	best := 0.0
	for i := 0; i < 3; i++ {
		t := time.Now()
		calibKernel()
		if d := float64(time.Since(t).Nanoseconds()) / 1e6; i == 0 || d < best {
			best = d
		}
	}
	c.ms = append(c.ms, best)
}

// splitmix is the splitmix64 step: the harness's only random source, so
// that a seed means the same inputs on every Go version.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// Package icnt models the two crossbar networks of Fig. 2: a request
// network carrying core→L2 packets and a reply network carrying L2→core
// packets, both switching at flit granularity. The flit sizes are
// independent, which is what enables the paper's asymmetric crossbars
// (16+48, 16+68, 32+52 in §VII-B).
//
// The model is an input-queued wormhole crossbar: each source owns a bounded
// injection FIFO; each destination owns a bounded ejection FIFO; every cycle
// each output port accepts one flit, locking onto a packet until its tail
// flit has crossed, with round-robin arbitration among competing sources.
// Ejection-FIFO slots are reserved when a packet wins arbitration, so a full
// sink propagates backpressure into the network and from there into the
// senders' queues — the bp-ICNT and bp-L2 effects of Figs. 8 and 9.
//
// The switch tracks activity per output: headDst records which destination
// each source's head packet targets, and dstWork counts the sources
// currently targeting each output, so Tick touches only outputs with work
// and arbitration reads an int array instead of peeking every injection
// FIFO. An idle crossbar cycle costs one compare per output.
package icnt

import (
	"fmt"
	"math/bits"

	"gpumembw/internal/mem"
	"gpumembw/internal/sched"
)

// Packet is one network packet wrapping a memory fetch.
type Packet struct {
	Fetch *mem.Fetch
	Src   int
	Dst   int
	Flits int   // total flits at this network's flit size
	sent  int   // flits already transferred
	ready int64 // earliest cycle the sink may consume it (pipeline latency)
}

// Stats aggregates per-network statistics.
type Stats struct {
	PacketsInjected  int64
	PacketsDelivered int64
	FlitsTransferred int64 // one per output-port cycle spent moving a flit
	Cycles           int64 // the crossbar's clock: interconnect cycles ticked or replayed
}

// Utilization is the fraction of output-port bandwidth carrying flits.
func (s *Stats) Utilization(outputs int) float64 {
	if s.Cycles == 0 || outputs == 0 {
		return 0
	}
	return float64(s.FlitsTransferred) / float64(s.Cycles*int64(outputs))
}

// Network is one direction of the crossbar.
type Network struct {
	name      string
	flitBytes int
	latency   int64 // fixed traversal pipeline, in interconnect cycles

	in  []*mem.Queue[*Packet] // per-source injection FIFOs
	out []*mem.Queue[*Packet] // per-destination ejection FIFOs

	inFlits    []int    // flits resident in each injection FIFO
	drainStamp []uint64 // per-source count of drained flits (backpressure memo)
	outResvd   []int    // ejection slots reserved by in-transfer packets
	outOcc     []uint64 // bitset of destinations with a non-empty ejection FIFO
	lockSrc    []int    // output → source it is locked to (-1 if free)
	rr         []int    // output → round-robin arbitration pointer
	headDst    []int32  // source → destination of its head packet (-1 if empty)
	dstWork    []int32  // output → number of sources whose head targets it
	srcBusy    int      // number of sources with a head packet (headDst != -1)

	pool []*Packet // freelist of released packets

	inCap     int // injection capacity in flits
	flitShift int // log2(flitBytes) when a power of two, else -1
	unbounded bool

	Stats Stats
}

// NewNetwork builds a crossbar direction with the given port counts,
// flit size, per-source injection capacity (in flits), per-destination
// ejection capacity (in packets) and fixed traversal latency (in
// interconnect cycles). outCap ≤ 0 makes the ejection FIFOs unbounded.
func NewNetwork(name string, sources, dests, flitBytes, inCapFlits, outCapPackets int, latency int) *Network {
	n := &Network{
		name:       name,
		flitBytes:  flitBytes,
		latency:    int64(latency),
		in:         make([]*mem.Queue[*Packet], sources),
		out:        make([]*mem.Queue[*Packet], dests),
		inFlits:    make([]int, sources),
		drainStamp: make([]uint64, sources),
		outResvd:   make([]int, dests),
		outOcc:     make([]uint64, (dests+63)/64),
		lockSrc:    make([]int, dests),
		rr:         make([]int, dests),
		headDst:    make([]int32, sources),
		dstWork:    make([]int32, dests),
		inCap:      inCapFlits,
		flitShift:  -1,
		unbounded:  outCapPackets <= 0,
	}
	if flitBytes > 0 && flitBytes&(flitBytes-1) == 0 {
		n.flitShift = bits.TrailingZeros(uint(flitBytes))
	}
	for i := range n.in {
		n.in[i] = mem.NewQueue[*Packet](0) // flit budget enforced separately
		n.headDst[i] = -1
	}
	for i := range n.out {
		n.out[i] = mem.NewQueue[*Packet](outCapPackets)
		n.lockSrc[i] = -1
	}
	return n
}

// DrainStamp returns a counter that advances whenever a flit leaves source
// src's injection FIFO. A caller whose Inject failed on backpressure can
// skip retrying until the stamp moves: with no drain the same attempt must
// fail again (only the failing source itself can add flits).
func (n *Network) DrainStamp(src int) uint64 { return n.drainStamp[src] }

// CanInject reports whether a packet of the given byte size fits in
// source src's injection FIFO. An empty FIFO always accepts one packet,
// so oversized packets cannot deadlock narrow-flit networks.
func (n *Network) CanInject(src, bytes int) bool {
	if n.inCap <= 0 || n.in[src].Empty() {
		return true
	}
	return n.inFlits[src]+n.flits(bytes) <= n.inCap
}

// flits sizes a packet in flits, shifting instead of dividing when the
// flit size is a power of two (it always is in practice, and the division
// sat on the per-attempt injection path).
func (n *Network) flits(bytes int) int {
	if n.flitShift >= 0 {
		if f := (bytes + n.flitBytes - 1) >> uint(n.flitShift); f > 1 {
			return f
		}
		return 1
	}
	return mem.Flits(bytes, n.flitBytes)
}

// Inject queues fetch for transfer from src to dst and reports whether it
// was accepted. Callers should check CanInject first; Inject returns false
// under the same conditions.
func (n *Network) Inject(f *mem.Fetch, src, dst, bytes int) bool {
	if !n.CanInject(src, bytes) {
		return false
	}
	p := n.getPacket()
	*p = Packet{Fetch: f, Src: src, Dst: dst, Flits: n.flits(bytes)}
	if n.in[src].Empty() {
		n.headDst[src] = int32(dst)
		n.dstWork[dst]++
		n.srcBusy++
	}
	n.in[src].Push(p)
	n.inFlits[src] += p.Flits
	n.Stats.PacketsInjected++
	return true
}

// Peek returns the packet waiting at destination dst, if consumable this
// cycle (its pipeline latency has elapsed).
func (n *Network) Peek(dst int) (*Packet, bool) {
	p, ok := n.out[dst].Peek()
	if !ok || p.ready > n.Stats.Cycles {
		return nil, false
	}
	return p, true
}

// Pop consumes the packet waiting at destination dst. The returned packet
// belongs to the caller; Release recycles it once its fetch has been
// handed on.
func (n *Network) Pop(dst int) (*Packet, bool) {
	p, ok := n.Peek(dst)
	if !ok {
		return nil, false
	}
	n.out[dst].Pop()
	if n.out[dst].Empty() {
		n.outOcc[dst>>6] &^= 1 << uint(dst&63)
	}
	n.Stats.PacketsDelivered++
	return p, true
}

// OccupiedDsts returns a bitset (64 destinations per word) of the
// destinations whose ejection FIFO holds at least one packet — possibly
// not yet consumable, if its pipeline latency has not elapsed. Scanning it
// beats peeking every destination when deliveries are sparse.
func (n *Network) OccupiedDsts() []uint64 { return n.outOcc }

// Release returns a packet obtained from Pop to the network's freelist.
// Optional: unreleased packets are simply garbage collected.
func (n *Network) Release(p *Packet) {
	if p != nil {
		n.pool = append(n.pool, p)
	}
}

func (n *Network) getPacket() *Packet {
	if l := len(n.pool); l > 0 {
		p := n.pool[l-1]
		n.pool = n.pool[:l-1]
		return p
	}
	return &Packet{}
}

// Tick advances the crossbar one interconnect cycle: every output port
// with pending work moves at most one flit from its locked (or newly
// arbitrated) source.
func (n *Network) Tick() {
	n.Stats.Cycles++
	if n.srcBusy == 0 {
		// No source holds a head packet, so no output can have work this
		// cycle; packets parked in ejection FIFOs need no switching.
		return
	}
	for d, w := range n.dstWork {
		if w != 0 {
			n.tickOutput(d)
		}
	}
}

// NextWake returns the earliest tick of the network's own clock (the
// value Stats.Cycles reaches in that Tick) at which Tick, or a sink
// peeking an ejection FIFO, can do anything but count a cycle: the next
// tick while any source holds a head packet (an output blocked on a full
// ejection FIFO retries every tick), else the earliest cycle an
// ejection-FIFO head finishes its pipeline latency (the next tick if one
// already has and waits for its sink), else sched.Never — only an Inject
// or a Pop can give the network work. Early is harmless, late never
// happens.
func (n *Network) NextWake() int64 {
	if n.srcBusy != 0 {
		return n.Stats.Cycles + 1
	}
	wake := sched.Never
	for wi, word := range n.outOcc {
		for word != 0 {
			d := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if p, _ := n.out[d].Peek(); p.ready < wake {
				wake = p.ready
			}
		}
	}
	return max(wake, n.Stats.Cycles+1)
}

// SkipTo replays the frozen Ticks up to tick in closed form: the clock
// advances, nothing else can. At or behind the clock it does nothing.
// Valid while the network is frozen — across any span that ends before
// NextWake().
func (n *Network) SkipTo(tick int64) {
	n.Stats.Cycles = max(n.Stats.Cycles, tick)
}

func (n *Network) tickOutput(d int) {
	src := n.lockSrc[d]
	if src == -1 {
		src = n.arbitrate(d)
		if src == -1 {
			return
		}
		// Reserve the ejection slot for the whole packet up front so the
		// tail flit can always land.
		n.lockSrc[d] = src
		n.outResvd[d]++
	}
	p, ok := n.in[src].Peek()
	if !ok || p.Dst != d {
		// Cannot happen: a locked source keeps its head packet until the
		// tail flit crosses.
		panic(fmt.Sprintf("icnt %s: output %d locked to source %d with no matching head packet", n.name, d, src))
	}
	p.sent++
	n.inFlits[src]--
	n.drainStamp[src]++
	n.Stats.FlitsTransferred++
	if p.sent >= p.Flits {
		n.in[src].Pop()
		n.dstWork[d]--
		if next, ok := n.in[src].Peek(); ok {
			n.headDst[src] = int32(next.Dst)
			n.dstWork[next.Dst]++
		} else {
			n.headDst[src] = -1
			n.srcBusy--
		}
		n.lockSrc[d] = -1
		n.outResvd[d]--
		p.ready = n.Stats.Cycles + n.latency
		if !n.out[d].Push(p) {
			panic(fmt.Sprintf("icnt %s: ejection overflow at output %d despite reservation", n.name, d))
		}
		n.outOcc[d>>6] |= 1 << uint(d&63)
	}
}

// arbitrate picks the next source whose head packet targets output d,
// round-robin from the last winner. It returns -1 when none is eligible or
// the ejection FIFO has no unreserved slot.
func (n *Network) arbitrate(d int) int {
	if !n.unbounded && n.out[d].Len()+n.outResvd[d] >= n.out[d].Cap() {
		return -1
	}
	numSrc := len(n.in)
	d32 := int32(d)
	s := n.rr[d] + 1
	if s >= numSrc {
		s = 0
	}
	for i := 0; i < numSrc; i++ {
		if n.headDst[s] == d32 {
			n.rr[d] = s
			return s
		}
		if s++; s >= numSrc {
			s = 0
		}
	}
	return -1
}

// InFlight returns the number of packets currently inside the network
// (injected but not yet consumed), used by drain checks in tests.
func (n *Network) InFlight() int64 {
	return n.Stats.PacketsInjected - n.Stats.PacketsDelivered
}

// PortOcc reports output-port activity for the profiler: busy counts
// outputs at least one source is targeting, contended counts outputs
// more than one source is competing for (the crossbar's port-contention
// gauge), and total is the number of output ports.
func (n *Network) PortOcc() (busy, contended, total int) {
	for _, w := range n.dstWork {
		if w > 0 {
			busy++
		}
		if w > 1 {
			contended++
		}
	}
	return busy, contended, len(n.dstWork)
}

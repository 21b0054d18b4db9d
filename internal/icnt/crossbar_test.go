package icnt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gpumembw/internal/mem"
)

func newNet(srcs, dsts, flit int) *Network {
	return NewNetwork("test", srcs, dsts, flit, 8, 8, 0)
}

func TestSinglePacketDelivery(t *testing.T) {
	n := newNet(2, 2, 32)
	f := &mem.Fetch{ID: 1, Type: mem.DataRead}
	if !n.Inject(f, 0, 1, 8) {
		t.Fatal("inject failed")
	}
	n.Tick() // 1 flit transfers
	p, ok := n.Pop(1)
	if !ok || p.Fetch != f {
		t.Fatalf("pop = %v, %v", p, ok)
	}
	if _, ok := n.Pop(0); ok {
		t.Fatal("packet delivered to wrong destination")
	}
}

func TestMultiFlitSerialization(t *testing.T) {
	n := newNet(1, 1, 32)
	f := &mem.Fetch{ID: 1, Type: mem.DataRead, SizeBytes: 128}
	n.Inject(f, 0, 0, 136) // 5 flits
	for i := 0; i < 4; i++ {
		n.Tick()
		if _, ok := n.Peek(0); ok {
			t.Fatalf("packet visible after %d/5 flits", i+1)
		}
	}
	n.Tick()
	if _, ok := n.Pop(0); !ok {
		t.Fatal("packet not delivered after 5 flits")
	}
	if n.Stats.FlitsTransferred != 5 {
		t.Fatalf("flits = %d, want 5", n.Stats.FlitsTransferred)
	}
}

func TestPipelineLatency(t *testing.T) {
	n := NewNetwork("lat", 1, 1, 32, 8, 8, 3)
	f := &mem.Fetch{ID: 1}
	n.Inject(f, 0, 0, 8)
	n.Tick() // flit crosses at cycle 1, ready at 4
	for i := 0; i < 2; i++ {
		if _, ok := n.Peek(0); ok {
			t.Fatal("packet visible before pipeline latency elapsed")
		}
		n.Tick()
	}
	n.Tick() // cycle 4
	if _, ok := n.Pop(0); !ok {
		t.Fatal("packet not visible after latency")
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// Two sources send multi-flit packets to one destination; the packets
	// must arrive one after the other, taking 5+5 cycles, not interleave.
	n := newNet(2, 1, 32)
	a := &mem.Fetch{ID: 1, SizeBytes: 128}
	b := &mem.Fetch{ID: 2, SizeBytes: 128}
	n.Inject(a, 0, 0, 136)
	n.Inject(b, 1, 0, 136)
	var arrivals []uint64
	for i := 0; i < 12; i++ {
		n.Tick()
		if p, ok := n.Pop(0); ok {
			arrivals = append(arrivals, p.Fetch.ID)
		}
	}
	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets", len(arrivals))
	}
	if n.Stats.FlitsTransferred != 10 {
		t.Fatalf("flits = %d, want 10", n.Stats.FlitsTransferred)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	// Three sources continuously send 1-flit packets to one destination;
	// deliveries must rotate.
	n := NewNetwork("rr", 3, 1, 32, 8, 1, 0)
	counts := map[int]int{}
	for i := 0; i < 90; i++ {
		for s := 0; s < 3; s++ {
			n.Inject(&mem.Fetch{ID: uint64(s)}, s, 0, 8)
		}
		n.Tick()
		if p, ok := n.Pop(0); ok {
			counts[int(p.Fetch.ID)]++
		}
	}
	for s := 0; s < 3; s++ {
		if counts[s] < 20 {
			t.Fatalf("source %d starved: %v", s, counts)
		}
	}
}

func TestEjectionBackpressure(t *testing.T) {
	// Destination FIFO of 2 packets; sink never pops. After 2 deliveries
	// plus a possible reserved in-transfer slot, the network must stall
	// and injection queues fill.
	n := NewNetwork("bp", 1, 1, 32, 4, 2, 0)
	injected := 0
	for i := 0; i < 50; i++ {
		if n.Inject(&mem.Fetch{ID: uint64(i)}, 0, 0, 8) {
			injected++
		}
		n.Tick()
	}
	if injected >= 50 {
		t.Fatal("injection never backpressured")
	}
	if n.Stats.FlitsTransferred > 2 {
		t.Fatalf("flits = %d, want ≤ 2 with full ejection FIFO", n.Stats.FlitsTransferred)
	}
	// Draining the sink must restart the flow.
	n.Pop(0)
	n.Pop(0)
	moved := n.Stats.FlitsTransferred
	n.Tick()
	n.Tick()
	if n.Stats.FlitsTransferred <= moved {
		t.Fatal("network did not resume after sink drained")
	}
}

func TestOversizedPacketAcceptedWhenEmpty(t *testing.T) {
	// 16 B flits, 8-flit injection buffer: a 136 B packet is 9 flits.
	n := NewNetwork("tiny", 1, 1, 16, 8, 8, 0)
	f := &mem.Fetch{ID: 1, SizeBytes: 128}
	if !n.Inject(f, 0, 0, 136) {
		t.Fatal("oversized packet rejected by empty FIFO")
	}
	// A second packet must wait.
	if n.Inject(&mem.Fetch{ID: 2}, 0, 0, 8) {
		t.Fatal("second packet accepted over budget")
	}
	for i := 0; i < 9; i++ {
		n.Tick()
	}
	if _, ok := n.Pop(0); !ok {
		t.Fatal("oversized packet not delivered after 9 flit cycles")
	}
}

func TestAsymmetricFlitSizesChangeCycleCount(t *testing.T) {
	cyclesToDeliver := func(flit int) int {
		n := NewNetwork("x", 1, 1, flit, 64, 8, 0)
		n.Inject(&mem.Fetch{ID: 1, SizeBytes: 128}, 0, 0, 136)
		for i := 1; ; i++ {
			n.Tick()
			if _, ok := n.Pop(0); ok {
				return i
			}
			if i > 100 {
				t.Fatal("never delivered")
			}
		}
	}
	if got := cyclesToDeliver(32); got != 5 {
		t.Fatalf("32 B flits: %d cycles, want 5", got)
	}
	if got := cyclesToDeliver(48); got != 3 {
		t.Fatalf("48 B flits: %d cycles, want 3", got)
	}
	if got := cyclesToDeliver(68); got != 2 {
		t.Fatalf("68 B flits: %d cycles, want 2", got)
	}
}

// TestConservation drives random traffic through a 15×6 crossbar and checks
// that every packet is delivered exactly once, to the right destination, in
// per-source-destination order.
func TestConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNetwork("cons", 15, 6, 32, 8, 8, 2)
		type key struct{ src, dst int }
		sent := map[key][]uint64{}
		recv := map[key][]uint64{}
		var id uint64
		for cycle := 0; cycle < 400; cycle++ {
			for s := 0; s < 15; s++ {
				if rng.Intn(3) == 0 {
					d := rng.Intn(6)
					bytes := 8
					if rng.Intn(4) == 0 {
						bytes = 136
					}
					ftch := &mem.Fetch{ID: id, CoreID: s}
					if n.Inject(ftch, s, d, bytes) {
						sent[key{s, d}] = append(sent[key{s, d}], id)
					}
					id++
				}
			}
			n.Tick()
			for d := 0; d < 6; d++ {
				if p, ok := n.Pop(d); ok {
					if p.Dst != d {
						return false
					}
					k := key{p.Src, d}
					recv[k] = append(recv[k], p.Fetch.ID)
				}
			}
		}
		// Drain.
		for cycle := 0; cycle < 2000 && n.InFlight() > 0; cycle++ {
			n.Tick()
			for d := 0; d < 6; d++ {
				if p, ok := n.Pop(d); ok {
					recv[key{p.Src, d}] = append(recv[key{p.Src, d}], p.Fetch.ID)
				}
			}
		}
		if n.InFlight() != 0 {
			return false
		}
		for k, ids := range sent {
			got := recv[k]
			if len(got) != len(ids) {
				return false
			}
			for i := range ids {
				if got[i] != ids[i] {
					return false // order violated
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Fatal(err)
	}
}

func TestUtilizationStat(t *testing.T) {
	n := newNet(1, 1, 32)
	n.Inject(&mem.Fetch{ID: 1, SizeBytes: 128}, 0, 0, 136)
	for i := 0; i < 10; i++ {
		n.Tick()
	}
	u := n.Stats.Utilization(1)
	if u != 0.5 { // 5 busy cycles out of 10
		t.Fatalf("utilization = %g, want 0.5", u)
	}
}

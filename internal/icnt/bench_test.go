package icnt

import (
	"testing"

	"gpumembw/internal/mem"
)

// crossbarCycle returns one loaded cycle of n, shared by the benchmarks and
// TestHotPathsDoNotAllocate: every source injects a packet of the given
// size, the crossbar ticks, and every destination pops. Fetches and packets
// are recycled through the freelists, as a simulated GPU would, so a cycle
// costs switching rather than allocation.
func crossbarCycle(n *Network, sources, dests, bytes, sizeBytes int) func() {
	pool := &mem.FetchPool{}
	var id uint64
	return func() {
		for s := 0; s < sources; s++ {
			id++
			f := pool.Get()
			f.ID = id
			f.SizeBytes = sizeBytes
			if !n.Inject(f, s, int(id)%dests, bytes) {
				pool.Put(f)
			}
		}
		n.Tick()
		for d := 0; d < dests; d++ {
			if p, ok := n.Pop(d); ok {
				pool.Put(p.Fetch)
				n.Release(p)
			}
		}
	}
}

// crossbarSaturated is the baseline request network under full load: all
// 15 cores sending to 12 banks.
func crossbarSaturated() (*Network, func()) {
	n := NewNetwork("bench", 15, 12, 32, 8, 8, 8)
	return n, crossbarCycle(n, 15, 12, 8, 0)
}

// crossbarReply is the reply direction with 5-flit packets (the 136 B load
// responses that congest the baseline).
func crossbarReply() (*Network, func()) {
	n := NewNetwork("bench-reply", 12, 15, 32, 16, 8, 8)
	return n, crossbarCycle(n, 12, 15, 136, 128)
}

func benchCycles(b *testing.B, cycle func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkCrossbarSaturated measures flit throughput on crossbarSaturated.
func BenchmarkCrossbarSaturated(b *testing.B) {
	n, cycle := crossbarSaturated()
	benchCycles(b, cycle)
	b.ReportMetric(float64(n.Stats.FlitsTransferred)/float64(b.N), "flits/cycle")
}

// BenchmarkCrossbarReply measures packet throughput on crossbarReply.
func BenchmarkCrossbarReply(b *testing.B) {
	n, cycle := crossbarReply()
	benchCycles(b, cycle)
	b.ReportMetric(float64(n.Stats.PacketsDelivered)/float64(b.N), "packets/cycle")
}

// TestHotPathsDoNotAllocate holds a loaded crossbar cycle, in both
// directions, to zero heap allocations.
func TestHotPathsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func() (*Network, func())
	}{
		{"CrossbarSaturated", crossbarSaturated},
		{"CrossbarReply", crossbarReply},
	} {
		_, cycle := tc.build()
		if n := testing.AllocsPerRun(1000, cycle); n != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", tc.name, n)
		}
	}
}

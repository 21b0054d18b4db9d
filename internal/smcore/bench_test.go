package smcore

import (
	"testing"

	"gpumembw/internal/config"
)

// The benchmarks' cores, built once each for the benchmark and for
// TestHotPathsDoNotAllocate, so the test runs exactly what the benchmarks
// time: one Core.Tick.

// issuingCore has 48 warps under a fixed-latency memory (the scheduler/LSU
// fast paths).
func issuingCore() *Core {
	cfg := config.Baseline()
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 200
	wl := streamWorkload(4, 8, 1<<30) // effectively endless
	return NewCore(0, &cfg, wl, testFetchFn())
}

// stalledCore is the worst-case scheduler scan: every warp blocked on a
// data hazard (the dirty-flag fast path).
func stalledCore() *Core {
	cfg := config.Baseline()
	cfg.Mode = config.ModeFixedL1MissLat
	cfg.FixedL1MissLatency = 1500 // park all warps for the whole benchmark
	wl := &Workload{
		Name: "stall",
		Program: Program{Body: []Inst{
			{Kind: OpLoad, Dest: 1, Src1: -1, Src2: -1},
			{Kind: OpALU, Dest: 2, Src1: 1, Src2: -1},
		}, Iters: 1 << 30, CodeBase: 1 << 40},
		Addr: func(buf []uint64, coreID, warpID, iter, instIdx int) []uint64 {
			return append(buf, uint64(warpID)<<20|uint64(iter)<<7)
		},
	}
	c := NewCore(0, &cfg, wl, testFetchFn())
	for i := 0; i < 500; i++ {
		c.Tick() // park the warps
	}
	return c
}

func benchTicks(b *testing.B, c *Core) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick()
	}
}

// BenchmarkCoreTick measures per-cycle core cost on issuingCore.
func BenchmarkCoreTick(b *testing.B) {
	c := issuingCore()
	benchTicks(b, c)
	b.ReportMetric(float64(c.Stats.Issued)/float64(b.N), "insts/cycle")
}

// BenchmarkIssueScanStalled measures one scan on stalledCore.
func BenchmarkIssueScanStalled(b *testing.B) { benchTicks(b, stalledCore()) }

// TestHotPathsDoNotAllocate holds a core's tick, issuing or fully stalled,
// to zero heap allocations.
func TestHotPathsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		core *Core
	}{
		{"CoreTick", issuingCore()},
		{"IssueScanStalled", stalledCore()},
	} {
		if n := testing.AllocsPerRun(1000, tc.core.Tick); n != 0 {
			t.Errorf("%s: %v allocations per tick, want 0", tc.name, n)
		}
	}
}

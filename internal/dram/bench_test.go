package dram

import (
	"testing"

	"gpumembw/internal/config"
	"gpumembw/internal/mem"
)

// BenchmarkChannelStreaming measures FR-FCFS throughput on a row-friendly
// stream (the workload shape of lbm/stencil).
func BenchmarkChannelStreaming(b *testing.B) {
	cfg := config.Baseline()
	c := NewChannel(0, &cfg)
	next := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Push(&mem.Fetch{ID: next, Type: mem.DataRead, Addr: next * 6 * 128, SizeBytes: 128}) {
			next++
		}
		c.Tick()
		for {
			if _, ok := c.PopResponse(); !ok {
				break
			}
		}
	}
	b.ReportMetric(float64(c.Stats.Reads)/float64(b.N), "reads/cycle")
}

// BenchmarkChannelRandom measures the row-thrashing worst case.
func BenchmarkChannelRandom(b *testing.B) {
	cfg := config.Baseline()
	c := NewChannel(0, &cfg)
	rowStride := uint64(cfg.DRAM.RowBytes) * uint64(cfg.DRAM.BanksPerChip) * 6
	next := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Push(&mem.Fetch{ID: next, Type: mem.DataRead, Addr: (next * 2654435761 % 4096) * rowStride, SizeBytes: 128}) {
			next++
		}
		c.Tick()
		for {
			if _, ok := c.PopResponse(); !ok {
				break
			}
		}
	}
	b.ReportMetric(rowHitRate(&c.Stats)*100, "row-hit-%")
}

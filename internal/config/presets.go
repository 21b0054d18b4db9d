package config

import "fmt"

// Baseline returns the GTX 480 (Fermi) baseline of Table I.
func Baseline() Config {
	return Config{
		Name: "baseline",
		Core: CoreConfig{
			NumCores:         15,
			WarpsPerCore:     48, // 1536 threads / 32-wide warps
			ClockMHz:         1400,
			IssueWidth:       1,
			MemPipelineWidth: 10,
			ALULatency:       4,
		},
		L1: L1Config{
			SizeBytes:        16 * 1024,
			LineBytes:        128,
			Ways:             4,
			MSHREntries:      32,
			MSHRMaxMerge:     8,
			MissQueueEntries: 8,
			HitLatency:       1,
			ResponseFIFO:     8,
			ICacheSizeBytes:  4 * 1024,
			ICacheWays:       4,
		},
		Icnt: IcntConfig{
			ReqFlitBytes:     32,
			ReplyFlitBytes:   32,
			InputBufFlits:    8,
			OutputBufPackets: 8,
			LatencyCycles:    8,
			ClockMHz:         700,
		},
		L2: L2Config{
			SizeBytes:            768 * 1024,
			LineBytes:            128,
			Ways:                 8,
			NumBanks:             12,
			MSHREntries:          32,
			MSHRMaxMerge:         8,
			MissQueueEntries:     8,
			AccessQueueEntries:   8,
			ResponseQueueEntries: 8,
			DataPortBytes:        32,
			TagLatency:           34,
			ClockMHz:             700,
		},
		DRAM: DRAMConfig{
			NumPartitions:      6,
			BusWidthBits:       384,
			DataRate:           4,
			BanksPerChip:       16,
			RowBytes:           4 * 1024,
			SchedQueueEntries:  16,
			ReturnQueueEntries: 8,
			CtrlLatency:        43,
			ClockMHz:           924,
			Timing: DRAMTiming{
				CCD: 2, RRD: 6, RCD: 12, RAS: 28, RP: 12,
				RC: 40, CL: 12, WL: 4, CDLR: 5, WR: 12,
			},
			InfiniteLatency: 90,
		},
		Mode:              ModeNormal,
		IdealL2HitLatency: 120,
		IdealMemLatency:   220,
		MaxCycles:         5_000_000,
	}
}

// ScaleFactor is the design-point scaling the paper applies in Fig. 10
// ("As a typical HBM provides up to 4× bandwidth compared to GDDR5 DRAM,
// we evaluate similar factor of scaling in other levels of the memory").
const ScaleFactor = 4

// scaled returns the baseline named name with levels scaled by
// ScaleFactor.
func scaled(name string, levels ...Level) Config {
	c := Baseline()
	c.Name = name
	for _, l := range levels {
		if err := Scale(&c, l, ScaleFactor); err != nil {
			panic(err)
		}
	}
	return c
}

// ScaledL1 returns the baseline with the L1 knobs of Table III scaled 4×:
// miss queue 8→32, MSHR 32→128, memory pipeline width 10→40.
func ScaledL1() Config { return scaled("L1-4x", LevelL1) }

// ScaledL2 returns the baseline with the L2 knobs of Table III scaled 4×:
// miss/response/access queues 8→32, MSHR 32→128, data port 32→128 B,
// crossbar flits 32+32→128+128 B, banks 12→48.
func ScaledL2() Config { return scaled("L2-4x", LevelL2) }

// ScaledDRAM returns the baseline with the DRAM knobs of Table III scaled
// 4×: scheduler queue 16→64, banks/chip 16→64, bus width 384→1536 bits.
// This is also the paper's model of an HBM-class memory system.
func ScaledDRAM() Config { return scaled("DRAM-4x", LevelDRAM) }

// ScaledL1L2 scales L1 and L2 synergistically (the "L1+L2" bars of Fig. 10).
func ScaledL1L2() Config { return scaled("L1+L2-4x", LevelL1, LevelL2) }

// ScaledL2DRAM scales L2 and DRAM synergistically ("L2+DRAM" in Fig. 10).
func ScaledL2DRAM() Config { return scaled("L2+DRAM-4x", LevelL2, LevelDRAM) }

// ScaledAll scales every level ("All" in Fig. 10).
func ScaledAll() Config { return scaled("All-4x", LevelL1, LevelL2, LevelDRAM) }

// HBM returns a memory system with the baseline cache hierarchy and an
// HBM-class DRAM (4× bandwidth), the comparison point of Figs. 10 and 12.
func HBM() Config { return scaled("HBM", LevelDRAM) }

// costEffectiveBase applies the Type '=' knobs of Table III's cost-effective
// column: L1/L2 miss, response and access queues to 32 entries, L1 MSHR to
// 48, memory pipeline width to 40. Type '+' parameters (port width, banks,
// DRAM) stay at baseline; only the crossbar flit split changes per variant.
func costEffectiveBase() Config {
	c := Baseline()
	c.L2.MissQueueEntries = 32
	c.L2.ResponseQueueEntries = 32
	c.L2.AccessQueueEntries = 32
	c.L1.MissQueueEntries = 32
	c.L1.MSHREntries = 48
	c.Core.MemPipelineWidth = 40
	return c
}

// CostEffective16x48 is the paper's 16+48 asymmetric crossbar: the request
// network shrinks to 16 B flits and the reply network grows to 48 B, keeping
// the total point-to-point wire count equal to the 32+32 baseline.
func CostEffective16x48() Config {
	c := costEffectiveBase()
	c.Name = "cost-effective-16+48"
	c.Icnt.ReqFlitBytes = 16
	c.Icnt.ReplyFlitBytes = 48
	return c
}

// CostEffective16x68 is the paper's best configuration (+29% average IPC):
// 16 B request flits, 68 B reply flits (20 B more wire than baseline).
func CostEffective16x68() Config {
	c := costEffectiveBase()
	c.Name = "cost-effective-16+68"
	c.Icnt.ReqFlitBytes = 16
	c.Icnt.ReplyFlitBytes = 68
	return c
}

// CostEffective32x52 keeps the baseline request network and grows the reply
// network to 52 B flits (same 20 B wire overhead as 16+68).
func CostEffective32x52() Config {
	c := costEffectiveBase()
	c.Name = "cost-effective-32+52"
	c.Icnt.ReqFlitBytes = 32
	c.Icnt.ReplyFlitBytes = 52
	return c
}

// AsymmetricOnly is the 16+48 crossbar without the cost-effective queue and
// MSHR scaling; the paper reports it reaches only +15.5%, demonstrating that
// synergistic scaling matters (§VII-C).
func AsymmetricOnly() Config {
	c := Baseline()
	c.Name = "asymmetric-16+48-only"
	c.Icnt.ReqFlitBytes = 16
	c.Icnt.ReplyFlitBytes = 48
	return c
}

// InfiniteBW returns the P∞ memory system of Table II: no bandwidth limits
// anywhere, minimum access latencies only.
func InfiniteBW() Config {
	c := Baseline()
	c.Name = "P-inf"
	c.Mode = ModeInfiniteBW
	return c
}

// InfiniteDRAM returns the P_DRAM memory system of Table II: the baseline
// cache hierarchy backed by an infinite-bandwidth, fixed 100-cycle DRAM.
func InfiniteDRAM() Config {
	c := Baseline()
	c.Name = "P-dram"
	c.DRAM.Infinite = true
	return c
}

// FixedL1MissLatency returns the Fig. 3 configuration in which every L1
// miss completes after exactly lat core cycles. The name carries the
// design point ("fixed-lat-300"), so every consumer — the experiment
// engine's memo keys, progress lines and JSON output — labels the same
// derived configuration the same way.
func FixedL1MissLatency(lat int) Config {
	c := Baseline()
	c.Name = fmt.Sprintf("fixed-lat-%d", lat)
	c.Mode = ModeFixedL1MissLat
	c.FixedL1MissLatency = lat
	return c
}

// WithCoreClock returns a copy of c with the core clock set to mhz,
// leaving the interconnect, L2 and DRAM clocks untouched — the Fig. 11
// frequency-scaling experiment. Like FixedL1MissLatency, the name carries
// the design point, appended to the base name
// ("baseline-core-1600MHz") so a derived non-baseline config keeps its
// provenance in progress lines and job listings.
func WithCoreClock(c Config, mhz float64) Config {
	c.Core.ClockMHz = mhz
	c.Name = fmt.Sprintf("%s-core-%gMHz", c.Name, mhz)
	return c
}

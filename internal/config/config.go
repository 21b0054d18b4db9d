// Package config defines the architectural parameter space of the simulated
// GPU memory hierarchy.
//
// The parameters mirror Table I (baseline GTX 480 / Fermi) and Table III
// (design space) of Dublish, Nagarajan and Topham, "Evaluating and Mitigating
// Bandwidth Bottlenecks Across the Memory Hierarchy in GPUs", ISPASS 2017.
// Presets construct the exact configurations the paper evaluates: the 4×
// scaled design points of Fig. 10, the cost-effective asymmetric-crossbar
// configurations of Fig. 12, the ideal memory systems of Table II (P∞ and
// P_DRAM), and the fixed-L1-miss-latency mode of Fig. 3.
package config

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Mode selects between the detailed memory hierarchy and the idealized
// memory systems used by the paper's motivation studies.
type Mode uint8

const (
	// ModeNormal simulates the full, bandwidth-limited memory hierarchy.
	ModeNormal Mode = iota
	// ModeInfiniteBW is the paper's P∞: L1 misses bypass all queues and
	// return after the minimum access latency (120 core cycles for an L2
	// hit, 220 for an L2 miss), with no structural limits anywhere.
	ModeInfiniteBW
	// ModeFixedL1MissLat returns every L1 miss after exactly
	// FixedL1MissLatency core cycles (the Fig. 3 latency sweep).
	ModeFixedL1MissLat
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeNormal:
		return "normal"
	case ModeInfiniteBW:
		return "infinite-bw"
	case ModeFixedL1MissLat:
		return "fixed-l1-miss-latency"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for m := ModeNormal; m <= ModeFixedL1MissLat; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown mode %q (known: normal, infinite-bw, fixed-l1-miss-latency)", s)
}

// MarshalJSON encodes known modes by name ("normal", "infinite-bw", ...)
// so config files and GET /v1/configs stay readable; out-of-range values
// fall back to their numeric form rather than failing, keeping Config
// always marshalable.
func (m Mode) MarshalJSON() ([]byte, error) {
	if m > ModeFixedL1MissLat {
		return json.Marshal(uint8(m))
	}
	return json.Marshal(m.String())
}

// UnmarshalJSON accepts either a mode name or its numeric value.
func (m *Mode) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		v, err := ParseMode(name)
		if err != nil {
			return err
		}
		*m = v
		return nil
	}
	var n uint8
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("config: mode must be a name or a number, got %s", data)
	}
	*m = Mode(n)
	return nil
}

// CoreConfig holds per-SM (SIMT core) parameters.
type CoreConfig struct {
	NumCores     int     // SMs in the GPU (15 on GTX 480)
	WarpsPerCore int     // resident warps per SM (1536 threads / 32 = 48)
	ClockMHz     float64 // core clock (1400 MHz baseline)
	IssueWidth   int     // instructions issued per cycle per SM; only 1 is modeled

	// MemPipelineWidth is the number of in-flight memory transactions the
	// load-store unit can buffer ("Memory pipeline width" in Table III;
	// 10 baseline, 40 scaled).
	MemPipelineWidth int

	// ALULatency is the execution latency of arithmetic instructions in
	// core cycles. ALUs are fully pipelined.
	ALULatency int
}

// L1Config holds private L1 data-cache parameters (one per SM) and the
// instruction-cache parameters that share the L1 miss path.
type L1Config struct {
	SizeBytes        int // 16 KB baseline
	LineBytes        int // 128 B
	Ways             int // 4-way
	MSHREntries      int // 32 baseline, 128 scaled, 48 cost-effective
	MSHRMaxMerge     int // secondary misses merged per MSHR entry
	MissQueueEntries int // 8 baseline, 32 scaled/cost-effective
	HitLatency       int // core cycles for an L1 hit to write back
	ResponseFIFO     int // reply-network ejection buffer, in packets

	// Instruction cache (shares the core's miss path to L2).
	ICacheSizeBytes int
	ICacheWays      int
}

// IcntConfig holds the crossbar interconnect parameters. The request network
// carries core→L2 traffic; the reply network carries L2→core traffic. The
// baseline is symmetric 32+32 B flits; the paper's cost-effective
// configurations make it asymmetric (16+48, 16+68, 32+52).
type IcntConfig struct {
	ReqFlitBytes     int // request-network flit size (32 B baseline)
	ReplyFlitBytes   int // reply-network flit size (32 B baseline)
	InputBufFlits    int // per-source injection buffer, in flits
	OutputBufPackets int // per-destination ejection buffer, in packets
	LatencyCycles    int // fixed traversal pipeline depth, in icnt cycles
	ClockMHz         float64
}

// L2Config holds shared L2 cache parameters. The L2 is banked; every queue
// and MSHR figure below is per bank, matching GPGPU-Sim's per-sub-partition
// organization.
type L2Config struct {
	SizeBytes            int // 768 KB total baseline
	LineBytes            int // 128 B
	Ways                 int // 8-way
	NumBanks             int // 12 baseline, 48 scaled
	MSHREntries          int // 32 baseline, 128 scaled
	MSHRMaxMerge         int
	MissQueueEntries     int // 8 baseline, 32 scaled/cost-effective
	AccessQueueEntries   int // 8 baseline, 32 scaled/cost-effective
	ResponseQueueEntries int // 8 baseline, 32 scaled/cost-effective
	DataPortBytes        int // 32 B baseline, 128 B scaled
	TagLatency           int // pipeline depth of an L2 access, in L2 cycles
	// ClockMHz must equal Icnt.ClockMHz: the L2 ticks in the crossbar domain.
	ClockMHz float64
}

// DRAMTiming holds GDDR5 timing constraints in DRAM command-clock cycles
// (Table I, "DRAM Timing Constraints").
type DRAMTiming struct {
	CCD  int // column-to-column delay
	RRD  int // row-to-row activate delay (different banks)
	RCD  int // row-to-column (activate-to-read/write) delay
	RAS  int // row active time (activate-to-precharge)
	RP   int // row precharge time
	RC   int // row cycle time (activate-to-activate, same bank)
	CL   int // CAS (read) latency
	WL   int // write latency
	CDLR int // last-write-data to read command delay
	WR   int // write recovery time (last write data to precharge)
}

// DRAMConfig holds off-chip memory parameters. One channel per memory
// partition; the two 32-bit chips of a partition operate in lockstep, so the
// per-partition bus is BusWidthBits/NumPartitions wide.
type DRAMConfig struct {
	NumPartitions      int     // 6 on GTX 480
	BusWidthBits       int     // 384 baseline, 1536 scaled/HBM (total)
	DataRate           int     // transfers per command clock (4 for GDDR5)
	BanksPerChip       int     // 16 baseline, 64 scaled
	RowBytes           int     // per-partition row-buffer size
	SchedQueueEntries  int     // FR-FCFS scheduler queue (16 baseline, 64 scaled)
	ReturnQueueEntries int     // DRAM→L2 response queue
	CtrlLatency        int     // fixed controller pipeline, in DRAM cycles
	ClockMHz           float64 // command clock (924 MHz)
	Timing             DRAMTiming

	// Infinite replaces the DRAM with a fixed-latency, infinite-bandwidth
	// pipe (the paper's P_DRAM). InfiniteLatency is in core cycles.
	Infinite        bool
	InfiniteLatency int
}

// Config is the complete architectural description of one simulated GPU.
type Config struct {
	Name string // human-readable configuration name

	Core CoreConfig
	L1   L1Config
	Icnt IcntConfig
	L2   L2Config
	DRAM DRAMConfig

	Mode Mode
	// FixedL1MissLatency is the constant L1 miss latency, in core cycles,
	// used when Mode == ModeFixedL1MissLat.
	FixedL1MissLatency int

	// IdealL2HitLatency and IdealMemLatency are the minimum access
	// latencies used by ModeInfiniteBW (120 and 220 core cycles in the
	// paper).
	IdealL2HitLatency int
	IdealMemLatency   int

	// MaxCycles aborts the simulation after this many core cycles
	// (safety net against livelock; 0 means no limit).
	MaxCycles int64
}

// LinesPerL2Bank returns the number of cache lines per L2 bank.
func (c *Config) LinesPerL2Bank() int {
	return c.L2.SizeBytes / c.L2.LineBytes / c.L2.NumBanks
}

// SetsPerL2Bank returns the number of sets per L2 bank.
func (c *Config) SetsPerL2Bank() int {
	return c.LinesPerL2Bank() / c.L2.Ways
}

// L1Sets returns the number of sets in one L1 data cache.
func (c *Config) L1Sets() int {
	return c.L1.SizeBytes / c.L1.LineBytes / c.L1.Ways
}

// BanksPerPartition returns the number of L2 banks attached to one memory
// partition (one crossbar node).
func (c *Config) BanksPerPartition() int {
	return c.L2.NumBanks / c.DRAM.NumPartitions
}

// PartitionBusBytes returns the per-partition DRAM data-bus width in bytes.
func (c *Config) PartitionBusBytes() int {
	return c.DRAM.BusWidthBits / c.DRAM.NumPartitions / 8
}

// DRAMBurstCycles returns the number of DRAM command-clock cycles the data
// bus is occupied transferring one cache line.
func (c *Config) DRAMBurstCycles() int {
	bytesPerCycle := c.PartitionBusBytes() * c.DRAM.DataRate
	n := (c.L2.LineBytes + bytesPerCycle - 1) / bytesPerCycle
	if n < 1 {
		n = 1
	}
	return n
}

// Hostile-config caps. Configurations are accepted from untrusted input
// (gpusimd's inline configs, CLI config files), so every knob that sizes
// an allocation or a per-cycle loop is bounded: without the caps a single
// JSON document could OOM the daemon (terabyte caches, million-entry
// queues) or livelock it (clock ratios that tick a domain millions of
// times per core cycle). The bounds leave two to three orders of
// magnitude of headroom over the paper's largest design points.
const (
	maxCores        = 1 << 10 // SMs (15 baseline)
	maxWarps        = 1 << 14 // warps per SM (48 baseline)
	maxTotalWarps   = 1 << 20 // cores × warps (720 baseline)
	maxCacheBytes   = 1 << 28 // any single cache (768 KB L2 baseline)
	maxLineBytes    = 1 << 12
	maxWays         = 1 << 8
	maxQueueEntries = 1 << 20 // queues, MSHRs, pipeline widths
	maxBanks        = 1 << 12 // L2 banks, DRAM banks/chip (12/16 baseline)
	maxPartitions   = 1 << 10 // crossbar ports scale with cores × banks
	maxPortBanks    = 1 << 22 // cores × L2 banks (180 baseline)
	maxFlitBytes    = 1 << 16
	maxRowBytes     = 1 << 24
	maxBusBits      = 1 << 20
	maxDataRate     = 1 << 6
	maxLatency      = 1 << 20 // fixed pipeline depths and timings
	maxIdealLatency = 1 << 30 // fixed-latency / ideal-mode latencies
	maxClockMHz     = 1e6
	maxClockRatio   = 1 << 12 // memory-domain ticks per core cycle
)

// Validate reports an error if the configuration is internally
// inconsistent or exceeds the hostile-config caps above. Checks are
// mode-aware: only fields the simulator consults under c.Mode are
// constrained, so the canonical form of a valid configuration (mode-dead
// fields zeroed, see Canonical) is itself valid.
func (c *Config) Validate() error {
	var errs []error
	check := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Errorf(format, args...))
		}
	}
	clock := func(mhz float64, what string) {
		// !(x > 0) also rejects NaN.
		check(mhz > 0 && mhz <= maxClockMHz, "%s clock must be in (0, %g] MHz, got %g", what, maxClockMHz, mhz)
	}
	lat := func(v int, bound int, what string) {
		check(v >= 0 && v <= bound, "%s must be in [0, %d], got %d", what, bound, v)
	}

	// Fields consulted in every mode: the cores, the L1/L1I tag arrays and
	// the memory pipeline run even under the ideal memory systems.
	check(c.Mode <= ModeFixedL1MissLat, "unknown mode %d (known: normal, infinite-bw, fixed-l1-miss-latency)", uint8(c.Mode))
	check(c.Core.NumCores > 0 && c.Core.NumCores <= maxCores, "NumCores must be in [1, %d], got %d", maxCores, c.Core.NumCores)
	check(c.Core.WarpsPerCore > 0 && c.Core.WarpsPerCore <= maxWarps, "WarpsPerCore must be in [1, %d], got %d", maxWarps, c.Core.WarpsPerCore)
	if c.Core.NumCores > 0 && c.Core.WarpsPerCore > 0 {
		check(c.Core.NumCores*c.Core.WarpsPerCore <= maxTotalWarps,
			"NumCores × WarpsPerCore must not exceed %d, got %d", maxTotalWarps, c.Core.NumCores*c.Core.WarpsPerCore)
	}
	clock(c.Core.ClockMHz, "core")
	// The SM model is single-issue (smcore never reads the field); any other
	// width would hash to a fresh cell with the baseline's metrics.
	check(c.Core.IssueWidth == 1, "core.issue_width must be 1 (the SM model is single-issue), got %d", c.Core.IssueWidth)
	check(c.Core.MemPipelineWidth > 0 && c.Core.MemPipelineWidth <= maxQueueEntries,
		"MemPipelineWidth must be in [1, %d], got %d", maxQueueEntries, c.Core.MemPipelineWidth)
	lat(c.Core.ALULatency, maxLatency, "ALULatency")
	check(c.L1.LineBytes > 0 && c.L1.LineBytes <= maxLineBytes && isPow2(c.L1.LineBytes),
		"L1 line size must be a power of two in [1, %d], got %d", maxLineBytes, c.L1.LineBytes)
	check(c.L1.LineBytes == c.L2.LineBytes, "L1 and L2 line sizes must match (%d vs %d)", c.L1.LineBytes, c.L2.LineBytes)
	cacheGeometry := func(size, ways int, what string) {
		check(size > 0 && size <= maxCacheBytes, "%s size must be in [1, %d], got %d", what, maxCacheBytes, size)
		check(ways > 0 && ways <= maxWays, "%s ways must be in [1, %d], got %d", what, maxWays, ways)
		if size > 0 && ways > 0 && c.L1.LineBytes > 0 {
			check(size%(c.L1.LineBytes*ways) == 0,
				"%s size %d not divisible by line*ways %d", what, size, c.L1.LineBytes*ways)
		}
	}
	cacheGeometry(c.L1.SizeBytes, c.L1.Ways, "L1")
	cacheGeometry(c.L1.ICacheSizeBytes, c.L1.ICacheWays, "L1I")
	lat(c.L1.HitLatency, maxLatency, "L1 hit latency")
	lat(c.L1.MSHRMaxMerge, maxQueueEntries, "L1 MSHR max merge")
	lat(c.L1.MissQueueEntries, maxQueueEntries, "L1 miss queue entries")
	lat(c.L1.ResponseFIFO, maxQueueEntries, "L1 response FIFO entries")
	check(c.Mode != ModeNormal || (c.L1.MSHREntries > 0 && c.L1.MSHREntries <= maxQueueEntries),
		"L1 MSHR entries must be in [1, %d], got %d", maxQueueEntries, c.L1.MSHREntries)
	check(c.Mode == ModeNormal || c.L1.MSHREntries >= 0, "L1 MSHR entries must be non-negative, got %d", c.L1.MSHREntries)
	check(c.MaxCycles >= 0, "MaxCycles must be non-negative, got %d", c.MaxCycles)

	switch c.Mode {
	case ModeNormal:
		c.validateHierarchy(check, clock, lat)
	case ModeInfiniteBW:
		// Only the functional L2 of the P∞ latency oracle is consulted.
		cacheGeometry(c.L2.SizeBytes, c.L2.Ways, "L2")
		lat(c.IdealL2HitLatency, maxIdealLatency, "IdealL2HitLatency")
		lat(c.IdealMemLatency, maxIdealLatency, "IdealMemLatency")
	case ModeFixedL1MissLat:
		lat(c.FixedL1MissLatency, maxIdealLatency, "FixedL1MissLatency")
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("config %q: %w", c.Name, errors.Join(errs...))
}

// validateHierarchy checks the interconnect, L2 and DRAM knobs — the
// fields only ModeNormal consults.
func (c *Config) validateHierarchy(check func(bool, string, ...any), clock func(float64, string), lat func(int, int, string)) {
	check(c.L2.SizeBytes > 0 && c.L2.SizeBytes <= maxCacheBytes, "L2 size must be in [1, %d], got %d", maxCacheBytes, c.L2.SizeBytes)
	check(c.L2.Ways > 0 && c.L2.Ways <= maxWays, "L2 ways must be in [1, %d], got %d", maxWays, c.L2.Ways)
	check(c.L2.NumBanks > 0 && c.L2.NumBanks <= maxBanks, "L2 banks must be in [1, %d], got %d", maxBanks, c.L2.NumBanks)
	check(c.DRAM.NumPartitions > 0 && c.DRAM.NumPartitions <= maxPartitions,
		"DRAM partitions must be in [1, %d], got %d", maxPartitions, c.DRAM.NumPartitions)
	if c.L2.NumBanks > 0 && c.DRAM.NumPartitions > 0 {
		check(c.L2.NumBanks%c.DRAM.NumPartitions == 0,
			"L2 banks (%d) must be a multiple of DRAM partitions (%d)", c.L2.NumBanks, c.DRAM.NumPartitions)
	}
	if c.Core.NumCores > 0 && c.L2.NumBanks > 0 {
		check(c.Core.NumCores*c.L2.NumBanks <= maxPortBanks,
			"NumCores × L2 banks must not exceed %d crossbar ports, got %d", maxPortBanks, c.Core.NumCores*c.L2.NumBanks)
	}
	if c.L2.SizeBytes > 0 && c.L2.NumBanks > 0 && c.L2.Ways > 0 && c.L2.LineBytes > 0 {
		check(c.L2.SizeBytes%(c.L2.NumBanks*c.L2.Ways*c.L2.LineBytes) == 0,
			"L2 size %d not divisible across %d banks × %d ways", c.L2.SizeBytes, c.L2.NumBanks, c.L2.Ways)
	}
	check(c.L2.MSHREntries > 0 && c.L2.MSHREntries <= maxQueueEntries,
		"L2 MSHR entries must be in [1, %d], got %d", maxQueueEntries, c.L2.MSHREntries)
	lat(c.L2.MSHRMaxMerge, maxQueueEntries, "L2 MSHR max merge")
	lat(c.L2.MissQueueEntries, maxQueueEntries, "L2 miss queue entries")
	lat(c.L2.AccessQueueEntries, maxQueueEntries, "L2 access queue entries")
	lat(c.L2.ResponseQueueEntries, maxQueueEntries, "L2 response queue entries")
	check(c.L2.DataPortBytes > 0 && c.L2.DataPortBytes <= maxQueueEntries,
		"L2 data port must be in [1, %d] bytes, got %d", maxQueueEntries, c.L2.DataPortBytes)
	lat(c.L2.TagLatency, maxLatency, "L2 tag latency")
	clock(c.L2.ClockMHz, "L2")
	// The L2 ticks in the crossbar clock domain; it has no divider of its own.
	check(c.L2.ClockMHz == c.Icnt.ClockMHz,
		"l2.clock_mhz (%g) must equal icnt.clock_mhz (%g): the L2 ticks in the crossbar clock domain, so set icnt.clock_mhz to scale both and keep l2.clock_mhz equal to it",
		c.L2.ClockMHz, c.Icnt.ClockMHz)

	check(c.Icnt.ReqFlitBytes > 0 && c.Icnt.ReqFlitBytes <= maxFlitBytes,
		"request flit size must be in [1, %d], got %d", maxFlitBytes, c.Icnt.ReqFlitBytes)
	check(c.Icnt.ReplyFlitBytes > 0 && c.Icnt.ReplyFlitBytes <= maxFlitBytes,
		"reply flit size must be in [1, %d], got %d", maxFlitBytes, c.Icnt.ReplyFlitBytes)
	lat(c.Icnt.InputBufFlits, maxQueueEntries, "icnt input buffer flits")
	lat(c.Icnt.OutputBufPackets, maxQueueEntries, "icnt output buffer packets")
	lat(c.Icnt.LatencyCycles, maxLatency, "icnt latency")
	clock(c.Icnt.ClockMHz, "icnt")
	clock(c.DRAM.ClockMHz, "DRAM")
	if c.Core.ClockMHz > 0 {
		check(!(c.Icnt.ClockMHz/c.Core.ClockMHz > maxClockRatio),
			"icnt:core clock ratio must not exceed %d", maxClockRatio)
		check(!(c.DRAM.ClockMHz/c.Core.ClockMHz > maxClockRatio),
			"DRAM:core clock ratio must not exceed %d", maxClockRatio)
	}
	check(c.DRAM.BusWidthBits > 0 && c.DRAM.BusWidthBits <= maxBusBits,
		"DRAM bus width must be in [1, %d] bits, got %d", maxBusBits, c.DRAM.BusWidthBits)
	check(c.DRAM.DataRate > 0 && c.DRAM.DataRate <= maxDataRate,
		"DRAM data rate must be in [1, %d], got %d", maxDataRate, c.DRAM.DataRate)
	if c.DRAM.NumPartitions > 0 {
		check(c.DRAM.BusWidthBits%(c.DRAM.NumPartitions*8) == 0,
			"DRAM bus width %d bits must divide evenly across %d partitions", c.DRAM.BusWidthBits, c.DRAM.NumPartitions)
	}
	if c.DRAM.Infinite {
		lat(c.DRAM.InfiniteLatency, maxIdealLatency, "DRAM infinite latency")
		return
	}
	check(c.DRAM.BanksPerChip > 0 && c.DRAM.BanksPerChip <= maxBanks,
		"DRAM banks/chip must be in [1, %d], got %d", maxBanks, c.DRAM.BanksPerChip)
	check(c.DRAM.RowBytes > 0 && c.DRAM.RowBytes <= maxRowBytes,
		"DRAM row size must be in [1, %d] bytes, got %d", maxRowBytes, c.DRAM.RowBytes)
	lat(c.DRAM.SchedQueueEntries, maxQueueEntries, "DRAM scheduler queue entries")
	lat(c.DRAM.ReturnQueueEntries, maxQueueEntries, "DRAM return queue entries")
	lat(c.DRAM.CtrlLatency, maxLatency, "DRAM controller latency")
	for _, t := range []struct {
		name string
		v    int
	}{
		{"tCCD", c.DRAM.Timing.CCD}, {"tRRD", c.DRAM.Timing.RRD},
		{"tRCD", c.DRAM.Timing.RCD}, {"tRAS", c.DRAM.Timing.RAS},
		{"tRP", c.DRAM.Timing.RP}, {"tRC", c.DRAM.Timing.RC},
		{"CL", c.DRAM.Timing.CL}, {"WL", c.DRAM.Timing.WL},
		{"tCDLR", c.DRAM.Timing.CDLR}, {"tWR", c.DRAM.Timing.WR},
	} {
		lat(t.v, maxLatency, t.name)
	}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

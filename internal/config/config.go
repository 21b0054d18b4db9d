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
//
// # A knob's facts
//
// Every leaf of Config is a knob, and everything the package knows about
// a knob is one row of the knob table (knobTable, knobs.go):
//
//   - its path — the canonical dotted spelling (l1.mshr_entries) that
//     -set flags, GET /v1/knobs, the explorer and range errors use;
//   - its type, read off the field itself (int, float, bool, string, mode);
//   - its range — inclusive [min, max] caps against hostile input, max 0
//     for the unbounded few; a float is a clock and excludes zero and NaN;
//   - its liveness — the named set of regimes (canonical.go) in which the
//     simulator reads the field at all.
//
// Three loops over the table are the package's behaviour: Validate
// range-checks the live rows, Canonical zeroes the dead ones (and ConfigID
// hashes what is left), Knobs lists them all. So the rule
//
//	validated ⇔ live ⇔ hashed
//
// holds by construction: a knob the mode ignores is neither checked nor
// part of the identity, may hold anything, and is never read by core.New
// or smcore.NewCore (internal/core's TestDeadKnobsAreUnread holds the
// simulator to that); a knob the mode reads is bounded and any change to
// it is a different cell. Adding a Config field means adding its row —
// TestKnobBoundsComplete fails until the table covers the struct.
//
// What the table cannot state are relations between knobs: power-of-two
// and matching line sizes, whole sets per cache, cores × warps, L2 banks
// per partition and per crossbar port, the L2 sharing the crossbar's
// clock, the clock ratios, the bus split across partitions. Those stay
// hand-written in Validate, after the loop, each once.
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
// inconsistent or exceeds the hostile-config caps above. It range-checks
// exactly the knob-table rows that are live in c's regime, so the
// canonical form of a valid configuration (dead knobs zeroed, see
// Canonical) is itself valid and a dead knob can hold anything. What
// follows the loop are the cross-field constraints — relations between
// two or more knobs, which no single row can state — each applied where
// its operands are live.
func (c *Config) Validate() error {
	var errs []error
	// fail is only ever called on a failed check: a valid configuration
	// boxes no argument and allocates nothing.
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	rows, in := knobTable(c), c.regime()
	for i := range rows {
		if rows[i].live&in == 0 {
			continue
		}
		if err := rows[i].rangeErr(); err != nil {
			errs = append(errs, err)
		}
	}

	l1, l2, dram := &c.L1, &c.L2, &c.DRAM
	if !isPow2(l1.LineBytes) {
		fail("L1 line size must be a power of two, got %d", l1.LineBytes)
	}
	if l1.LineBytes != l2.LineBytes {
		fail("L1 and L2 line sizes must match (%d vs %d)", l1.LineBytes, l2.LineBytes)
	}
	if cores, warps := c.Core.NumCores, c.Core.WarpsPerCore; cores > 0 && warps > 0 && cores*warps > maxTotalWarps {
		fail("NumCores × WarpsPerCore must not exceed %d, got %d", maxTotalWarps, cores*warps)
	}
	// divides reports d | n. A divisor that is zero, negative or an
	// overflowed product comes from a knob the loop above already
	// reported; it must not panic the check, so it passes.
	divides := func(d, n int) bool { return d <= 0 || n%d == 0 }
	wholeSets := func(size, ways int, what string) {
		if size > 0 && !divides(l1.LineBytes*ways, size) {
			fail("%s size %d not divisible by line*ways %d", what, size, l1.LineBytes*ways)
		}
	}
	wholeSets(l1.SizeBytes, l1.Ways, "L1")
	wholeSets(l1.ICacheSizeBytes, l1.ICacheWays, "L1I")
	if in == infiniteBW {
		wholeSets(l2.SizeBytes, l2.Ways, "L2") // the P∞ oracle's functional tag array
	}
	if in&hierarchy != 0 {
		banks, parts := l2.NumBanks, dram.NumPartitions
		if banks > 0 && !divides(parts, banks) {
			fail("L2 banks (%d) must be a multiple of DRAM partitions (%d)", banks, parts)
		}
		if c.Core.NumCores > 0 && banks > 0 && c.Core.NumCores*banks > maxPortBanks {
			fail("NumCores × L2 banks must not exceed %d crossbar ports, got %d", maxPortBanks, c.Core.NumCores*banks)
		}
		if l2.SizeBytes > 0 && !divides(banks*l2.Ways*l2.LineBytes, l2.SizeBytes) {
			fail("L2 size %d not divisible across %d banks × %d ways", l2.SizeBytes, banks, l2.Ways)
		}
		// The L2 ticks in the crossbar clock domain; it has no divider of its own.
		if l2.ClockMHz != c.Icnt.ClockMHz {
			fail("l2.clock_mhz (%g) must equal icnt.clock_mhz (%g): the L2 ticks in the crossbar clock domain, so set icnt.clock_mhz to scale both and keep l2.clock_mhz equal to it",
				l2.ClockMHz, c.Icnt.ClockMHz)
		}
		// A runaway ratio would tick a memory domain millions of times per core cycle.
		if c.Core.ClockMHz > 0 && c.Icnt.ClockMHz/c.Core.ClockMHz > maxClockRatio {
			fail("icnt:core clock ratio must not exceed %d", maxClockRatio)
		}
		if c.Core.ClockMHz > 0 && dram.ClockMHz/c.Core.ClockMHz > maxClockRatio {
			fail("DRAM:core clock ratio must not exceed %d", maxClockRatio)
		}
		if !divides(parts*8, dram.BusWidthBits) {
			fail("DRAM bus width %d bits must divide evenly across %d partitions", dram.BusWidthBits, parts)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("config %q: %w", c.Name, errors.Join(errs...))
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

package config

import (
	"fmt"
	"strconv"
)

// Knob describes one patchable configuration field: the canonical dotted
// path accepted by Set (and the -set flags), the value type, the
// hostile-config bounds Validate enforces, and the baseline preset's
// value. The enumeration is the machine-readable answer to "what can I
// put in a -set flag or a configPatch" — GET /v1/knobs serves it, and
// the design-space explorer derives its search lattice from it.
type Knob struct {
	// Path is the canonical dotted knob path (lower snake case, one
	// segment per struct level). Set matches paths case-insensitively
	// ignoring underscores and dashes, so any respelling of Path names
	// the same knob.
	Path string `json:"path"`
	// Type is the value class: "int", "float", "bool", "string" or
	// "mode" (the Mode enum, set by name).
	Type string `json:"type"`
	// Min and Max bound numeric knobs: Validate enforces exactly these
	// wherever the knob is live. Max is omitted (0) for the few unbounded
	// knobs; clock knobs exclude zero. Cross-field constraints (bank
	// divisibility, matching line sizes, ...) still apply on top.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Baseline is the baseline preset's value, in Set's textual form.
	Baseline string `json:"baseline"`
}

// knob is one row of the knob table: every fact the package holds about
// one Config leaf (see "A knob's facts" in the package comment).
type knob struct {
	path  string // canonical dotted path, the spelling -set accepts
	field any    // the leaf's address: *int, *int64, *float64, *bool, *string or *Mode
	// min and max are the numeric range, inclusive; max 0 means
	// unbounded. A *float64 is a clock: its min is exclusive (and NaN is
	// out of range), so a zero clock can never divide a ratio.
	min, max float64
	live     liveness // the regimes in which the simulator reads the field
}

// knobTable is the knob table, bound to c: one row per Config leaf, in
// declaration order. Validate, Canonical, Knobs, KnobOn, Set and Scale are
// loops over it, and TableIII locates its knobs through it, so a knob's
// path, range and liveness are each stated here and nowhere else. It is a
// function returning an array rather than a package-level slice of
// accessor closures because a pointer handed to a func value escapes:
// Validate and Identity sit on every job resolution and must not
// allocate, and the array lives on the caller's stack.
func knobTable(c *Config) [61]knob {
	d, t := &c.DRAM, &c.DRAM.Timing
	return [...]knob{
		{"name", &c.Name, 0, 0, always},

		{"core.num_cores", &c.Core.NumCores, 1, maxCores, always},
		{"core.warps_per_core", &c.Core.WarpsPerCore, 1, maxWarps, always},
		{"core.clock_mhz", &c.Core.ClockMHz, 0, maxClockMHz, always},
		// The SM model is single-issue (smcore never reads the field); any
		// other width would hash to a fresh cell with the baseline's metrics.
		{"core.issue_width", &c.Core.IssueWidth, 1, 1, always},
		{"core.mem_pipeline_width", &c.Core.MemPipelineWidth, 1, maxQueueEntries, always},
		{"core.alu_latency", &c.Core.ALULatency, 0, maxLatency, always},

		{"l1.size_bytes", &c.L1.SizeBytes, 1, maxCacheBytes, always},
		{"l1.line_bytes", &c.L1.LineBytes, 1, maxLineBytes, always},
		{"l1.ways", &c.L1.Ways, 1, maxWays, always},
		{"l1.mshr_entries", &c.L1.MSHREntries, 1, maxQueueEntries, hierarchy},
		{"l1.mshr_max_merge", &c.L1.MSHRMaxMerge, 0, maxQueueEntries, hierarchy},
		{"l1.miss_queue_entries", &c.L1.MissQueueEntries, 0, maxQueueEntries, hierarchy},
		{"l1.hit_latency", &c.L1.HitLatency, 0, maxLatency, always},
		{"l1.response_fifo", &c.L1.ResponseFIFO, 0, maxQueueEntries, hierarchy},
		{"l1.icache_size_bytes", &c.L1.ICacheSizeBytes, 1, maxCacheBytes, always},
		{"l1.icache_ways", &c.L1.ICacheWays, 1, maxWays, always},

		{"icnt.req_flit_bytes", &c.Icnt.ReqFlitBytes, 1, maxFlitBytes, hierarchy},
		{"icnt.reply_flit_bytes", &c.Icnt.ReplyFlitBytes, 1, maxFlitBytes, hierarchy},
		{"icnt.input_buf_flits", &c.Icnt.InputBufFlits, 0, maxQueueEntries, hierarchy},
		{"icnt.output_buf_packets", &c.Icnt.OutputBufPackets, 0, maxQueueEntries, hierarchy},
		{"icnt.latency_cycles", &c.Icnt.LatencyCycles, 0, maxLatency, hierarchy},
		{"icnt.clock_mhz", &c.Icnt.ClockMHz, 0, maxClockMHz, hierarchy},

		{"l2.size_bytes", &c.L2.SizeBytes, 1, maxCacheBytes, functionalL2},
		// Live everywhere only because it must equal the live L1 line size.
		{"l2.line_bytes", &c.L2.LineBytes, 1, maxLineBytes, always},
		{"l2.ways", &c.L2.Ways, 1, maxWays, functionalL2},
		{"l2.num_banks", &c.L2.NumBanks, 1, maxBanks, hierarchy},
		{"l2.mshr_entries", &c.L2.MSHREntries, 1, maxQueueEntries, hierarchy},
		{"l2.mshr_max_merge", &c.L2.MSHRMaxMerge, 0, maxQueueEntries, hierarchy},
		{"l2.miss_queue_entries", &c.L2.MissQueueEntries, 0, maxQueueEntries, hierarchy},
		{"l2.access_queue_entries", &c.L2.AccessQueueEntries, 0, maxQueueEntries, hierarchy},
		{"l2.response_queue_entries", &c.L2.ResponseQueueEntries, 0, maxQueueEntries, hierarchy},
		{"l2.data_port_bytes", &c.L2.DataPortBytes, 1, maxQueueEntries, hierarchy},
		{"l2.tag_latency", &c.L2.TagLatency, 0, maxLatency, hierarchy},
		{"l2.clock_mhz", &c.L2.ClockMHz, 0, maxClockMHz, hierarchy},

		{"dram.num_partitions", &d.NumPartitions, 1, maxPartitions, hierarchy},
		{"dram.bus_width_bits", &d.BusWidthBits, 1, maxBusBits, hierarchy},
		{"dram.data_rate", &d.DataRate, 1, maxDataRate, hierarchy},
		{"dram.banks_per_chip", &d.BanksPerChip, 1, maxBanks, frfcfs},
		{"dram.row_bytes", &d.RowBytes, 1, maxRowBytes, frfcfs},
		{"dram.sched_queue_entries", &d.SchedQueueEntries, 0, maxQueueEntries, frfcfs},
		{"dram.return_queue_entries", &d.ReturnQueueEntries, 0, maxQueueEntries, frfcfs},
		{"dram.ctrl_latency", &d.CtrlLatency, 0, maxLatency, frfcfs},
		{"dram.clock_mhz", &d.ClockMHz, 0, maxClockMHz, hierarchy},
		{"dram.timing.ccd", &t.CCD, 0, maxLatency, frfcfs},
		{"dram.timing.rrd", &t.RRD, 0, maxLatency, frfcfs},
		{"dram.timing.rcd", &t.RCD, 0, maxLatency, frfcfs},
		{"dram.timing.ras", &t.RAS, 0, maxLatency, frfcfs},
		{"dram.timing.rp", &t.RP, 0, maxLatency, frfcfs},
		{"dram.timing.rc", &t.RC, 0, maxLatency, frfcfs},
		{"dram.timing.cl", &t.CL, 0, maxLatency, frfcfs},
		{"dram.timing.wl", &t.WL, 0, maxLatency, frfcfs},
		{"dram.timing.cdlr", &t.CDLR, 0, maxLatency, frfcfs},
		{"dram.timing.wr", &t.WR, 0, maxLatency, frfcfs},
		{"dram.infinite", &d.Infinite, 0, 0, hierarchy},
		{"dram.infinite_latency", &d.InfiniteLatency, 0, maxIdealLatency, infiniteDRAM},

		{"mode", &c.Mode, 0, 0, always},
		{"fixed_l1_miss_latency", &c.FixedL1MissLatency, 0, maxIdealLatency, fixedLatency},
		{"ideal_l2_hit_latency", &c.IdealL2HitLatency, 0, maxIdealLatency, infiniteBW},
		{"ideal_mem_latency", &c.IdealMemLatency, 0, maxIdealLatency, infiniteBW},
		// A safety net, not hardware: 0 disables it and no cap is needed.
		{"max_cycles", &c.MaxCycles, 0, 0, always},
	}
}

// rangeErr returns nil when the row's value lies in its range, else the
// uniform range error naming the canonical path.
func (k *knob) rangeErr() error {
	switch p := k.field.(type) {
	case *int:
		return k.intRangeErr(int64(*p))
	case *int64:
		return k.intRangeErr(*p)
	case *float64:
		if !(*p > k.min && *p <= k.max) { // also rejects NaN
			return fmt.Errorf("%s must be in (%g, %g], got %g", k.path, k.min, k.max, *p)
		}
	case *Mode:
		if *p > ModeFixedL1MissLat {
			return fmt.Errorf("unknown mode %d (known: normal, infinite-bw, fixed-l1-miss-latency)", uint8(*p))
		}
	}
	return nil
}

func (k *knob) intRangeErr(v int64) error {
	lo, hi := int64(k.min), int64(k.max)
	switch {
	case v >= lo && (hi == 0 || v <= hi):
		return nil
	case hi == 0:
		return fmt.Errorf("%s must be at least %d, got %d", k.path, lo, v)
	}
	return fmt.Errorf("%s must be in [%d, %d], got %d", k.path, lo, hi, v)
}

// zero clears the row's field — Canonical's verdict on a dead knob.
func (k *knob) zero() {
	switch p := k.field.(type) {
	case *int:
		*p = 0
	case *int64:
		*p = 0
	case *float64:
		*p = 0
	case *bool:
		*p = false
	case *string:
		*p = ""
	case *Mode:
		*p = 0
	}
}

// typeAndValue returns the row's Knob.Type and its current value in
// Set's textual form.
func (k *knob) typeAndValue() (typ, val string) {
	switch p := k.field.(type) {
	case *int:
		return "int", strconv.Itoa(*p)
	case *int64:
		return "int", strconv.FormatInt(*p, 10)
	case *float64:
		return "float", strconv.FormatFloat(*p, 'g', -1, 64)
	case *bool:
		return "bool", strconv.FormatBool(*p)
	case *string:
		return "string", *p
	case *Mode:
		return "mode", p.String()
	}
	panic("config: knob " + k.path + " has an unsupported field type")
}

// describe renders the row as the public Knob; Baseline is the bound
// configuration's current value.
func (k *knob) describe() Knob {
	typ, val := k.typeAndValue()
	return Knob{Path: k.path, Type: typ, Min: k.min, Max: k.max, Baseline: val}
}

// Knobs enumerates every patchable knob — one per Config leaf, in field
// declaration order — with canonical dotted paths, types, Validate bounds
// and baseline values.
func Knobs() []Knob {
	base := Baseline()
	rows := knobTable(&base)
	out := make([]Knob, len(rows))
	for i := range rows {
		out[i] = rows[i].describe()
	}
	return out
}

// KnobOn returns the knob named by path (any Set spelling) as it stands
// on cfg — its Baseline field holds cfg's value — after checking that
// each of values is one Set accepts for it and lies in its range, so a
// ladder of values is held to the rules a single -set meets in Validate.
func KnobOn(cfg Config, path string, values ...string) (Knob, error) {
	rows := knobTable(&cfg)
	k, err := findKnob(rows[:], path)
	if err != nil {
		return Knob{}, err
	}
	desc := k.describe()
	for _, v := range values {
		if err := k.parse(v); err != nil {
			return Knob{}, err
		}
		if err := k.rangeErr(); err != nil {
			return Knob{}, err
		}
	}
	return desc, nil
}

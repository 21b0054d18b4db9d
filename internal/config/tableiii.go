package config

import (
	"fmt"
	"unsafe"
)

// Level is a memory level of the paper's Fig. 10 scaling study, spelled
// as bwexplore's -levels flag spells it.
type Level string

// The levels Table III assigns its parameters to.
const (
	LevelL1   Level = "l1"
	LevelL2   Level = "l2"
	LevelDRAM Level = "dram"
)

// TableIIIRow is one parameter of Table III.
type TableIIIRow struct {
	// Param is the parameter's label in the report's Table III.
	Param string
	// Type is "=" for a parameter that enables peak throughput and "+"
	// for one that raises it.
	Type string
	// Level is the level whose Fig. 10 scaling multiplies the parameter.
	Level Level
	// Knobs are the parameter's canonical knob paths; the crossbar row
	// names both flit widths, request first.
	Knobs []string
	// EntryBytes is what one entry of a queue or MSHR holds: 128 for a
	// cache line, 8 for an address. It is 0 for a width or a count.
	EntryBytes int

	offsets []uintptr // per knob, its byte offset within a Config (row)
}

// TableIII is the paper's design space, one row per parameter in the
// paper's order: what scaling a level means (Scale), the report's
// Table III, the explorer's default lattice and the area model's storage
// terms are each a loop over it.
var TableIII = []TableIIIRow{
	row("DRAM scheduler queue", "=", LevelDRAM, 8, "dram.sched_queue_entries"),
	row("DRAM banks/chip", "=", LevelDRAM, 0, "dram.banks_per_chip"),
	row("DRAM bus width (bits)", "+", LevelDRAM, 0, "dram.bus_width_bits"),
	row("L2 miss queue", "=", LevelL2, 8, "l2.miss_queue_entries"),
	row("L2 response queue", "=", LevelL2, 128, "l2.response_queue_entries"),
	row("L2 MSHR", "=", LevelL2, 8, "l2.mshr_entries"),
	row("L2 access queue", "=", LevelL2, 128, "l2.access_queue_entries"),
	row("L2 data port (bytes)", "+", LevelL2, 0, "l2.data_port_bytes"),
	row("Crossbar flits (req+reply)", "+", LevelL2, 0, "icnt.req_flit_bytes", "icnt.reply_flit_bytes"),
	// Each L2 bank owns a crossbar port, so the bank count scales with L2.
	row("L2 banks", "+", LevelL2, 0, "l2.num_banks"),
	row("L1 miss queue", "=", LevelL1, 8, "l1.miss_queue_entries"),
	row("L1 MSHR", "=", LevelL1, 8, "l1.mshr_entries"),
	row("Memory pipeline width", "=", LevelL1, 128, "core.mem_pipeline_width"),
}

// row builds a TableIII row, locating its knobs in a Config once, so Field
// is a pointer add rather than a knob-table build per read.
func row(param, typ string, level Level, entryBytes int, knobs ...string) TableIIIRow {
	c := new(Config)
	table := knobTable(c)
	r := TableIIIRow{Param: param, Type: typ, Level: level, Knobs: knobs, EntryBytes: entryBytes}
	for _, path := range knobs {
		f := intField(table[:], path)
		r.offsets = append(r.offsets, uintptr(unsafe.Pointer(f))-uintptr(unsafe.Pointer(c)))
	}
	return r
}

// Field returns the address on c of the row's i-th knob.
func (r *TableIIIRow) Field(c *Config, i int) *int {
	return (*int)(unsafe.Add(unsafe.Pointer(c), r.offsets[i]))
}

// intField returns the int field the canonical path names among rows.
func intField(rows []knob, path string) *int {
	for i := range rows {
		if rows[i].path == path {
			return rows[i].field.(*int)
		}
	}
	panic("config: no knob " + path)
}

// Scale multiplies every Table III knob of level by factor — the single
// definition of "scaling a level", shared by the Fig. 10 presets and the
// design-space CLIs, so a CLI-scaled level with the preset's factor is
// the content-addressed twin of the preset.
func Scale(c *Config, level Level, factor int) error {
	rows := knobTable(c)
	found := false
	for _, r := range TableIII {
		if r.Level != level {
			continue
		}
		for _, path := range r.Knobs {
			*intField(rows[:], path) *= factor
		}
		found = true
	}
	if !found {
		return fmt.Errorf("config: unknown level %q (want l1, l2 or dram)", level)
	}
	return nil
}

package config

import "testing"

func TestBaselineMatchesTableI(t *testing.T) {
	c := Baseline()
	if err := c.Validate(); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	checks := []struct {
		name string
		got  any
		want any
	}{
		{"cores", c.Core.NumCores, 15},
		{"warps/core", c.Core.WarpsPerCore, 48},
		{"core clock", c.Core.ClockMHz, 1400.0},
		{"L2 clock", c.L2.ClockMHz, 700.0},
		{"dram clock", c.DRAM.ClockMHz, 924.0},
		{"mem pipeline width", c.Core.MemPipelineWidth, 10},
		{"L1 size", c.L1.SizeBytes, 16 * 1024},
		{"L1 ways", c.L1.Ways, 4},
		{"L1 mshr", c.L1.MSHREntries, 32},
		{"L1 miss queue", c.L1.MissQueueEntries, 8},
		{"req flit", c.Icnt.ReqFlitBytes, 32},
		{"reply flit", c.Icnt.ReplyFlitBytes, 32},
		{"L2 size", c.L2.SizeBytes, 768 * 1024},
		{"L2 ways", c.L2.Ways, 8},
		{"L2 banks", c.L2.NumBanks, 12},
		{"L2 mshr", c.L2.MSHREntries, 32},
		{"L2 data port", c.L2.DataPortBytes, 32},
		{"dram partitions", c.DRAM.NumPartitions, 6},
		{"dram bus width", c.DRAM.BusWidthBits, 384},
		{"dram banks/chip", c.DRAM.BanksPerChip, 16},
		{"dram sched queue", c.DRAM.SchedQueueEntries, 16},
		{"tCCD", c.DRAM.Timing.CCD, 2},
		{"tRRD", c.DRAM.Timing.RRD, 6},
		{"tRCD", c.DRAM.Timing.RCD, 12},
		{"tRAS", c.DRAM.Timing.RAS, 28},
		{"tRP", c.DRAM.Timing.RP, 12},
		{"tRC", c.DRAM.Timing.RC, 40},
		{"CL", c.DRAM.Timing.CL, 12},
		{"WL", c.DRAM.Timing.WL, 4},
		{"tCDLR", c.DRAM.Timing.CDLR, 5},
		{"tWR", c.DRAM.Timing.WR, 12},
	}
	for _, ck := range checks {
		if ck.got != ck.want {
			t.Errorf("%s = %v, want %v", ck.name, ck.got, ck.want)
		}
	}
}

func TestDerivedGeometry(t *testing.T) {
	c := Baseline()
	if got := c.L1Sets(); got != 32 {
		t.Errorf("L1 sets = %d, want 32 (16KB / 128B / 4-way)", got)
	}
	if got := c.LinesPerL2Bank(); got != 512 {
		t.Errorf("lines per L2 bank = %d, want 512", got)
	}
	if got := c.SetsPerL2Bank(); got != 64 {
		t.Errorf("sets per L2 bank = %d, want 64", got)
	}
	if got := c.BanksPerPartition(); got != 2 {
		t.Errorf("banks per partition = %d, want 2", got)
	}
	if got := c.PartitionBusBytes(); got != 8 {
		t.Errorf("partition bus bytes = %d, want 8 (64 bits)", got)
	}
	// 8 B bus × 4 transfers/clock = 32 B/cycle ⇒ 128 B line = 4 cycles.
	if got := c.DRAMBurstCycles(); got != 4 {
		t.Errorf("burst cycles = %d, want 4", got)
	}
}

func TestScaledPresetsMatchTableIII(t *testing.T) {
	l1 := ScaledL1()
	if l1.L1.MSHREntries != 128 || l1.L1.MissQueueEntries != 32 || l1.Core.MemPipelineWidth != 40 {
		t.Errorf("ScaledL1 = mshr %d, missq %d, pipe %d; want 128, 32, 40",
			l1.L1.MSHREntries, l1.L1.MissQueueEntries, l1.Core.MemPipelineWidth)
	}
	if l1.L2.MSHREntries != 32 {
		t.Errorf("ScaledL1 must not touch L2 (mshr %d)", l1.L2.MSHREntries)
	}

	l2 := ScaledL2()
	if l2.L2.MissQueueEntries != 32 || l2.L2.ResponseQueueEntries != 32 ||
		l2.L2.MSHREntries != 128 || l2.L2.AccessQueueEntries != 32 ||
		l2.L2.DataPortBytes != 128 || l2.L2.NumBanks != 48 {
		t.Errorf("ScaledL2 L2 knobs wrong: %+v", l2.L2)
	}
	if l2.Icnt.ReqFlitBytes != 128 || l2.Icnt.ReplyFlitBytes != 128 {
		t.Errorf("ScaledL2 flits = %d+%d, want 128+128", l2.Icnt.ReqFlitBytes, l2.Icnt.ReplyFlitBytes)
	}

	dr := ScaledDRAM()
	if dr.DRAM.SchedQueueEntries != 64 || dr.DRAM.BanksPerChip != 64 || dr.DRAM.BusWidthBits != 1536 {
		t.Errorf("ScaledDRAM DRAM knobs wrong: %+v", dr.DRAM)
	}

	for _, c := range []Config{ScaledL1(), ScaledL2(), ScaledDRAM(), ScaledL1L2(), ScaledL2DRAM(), ScaledAll(), HBM()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
}

// TestScaleRefusesUnknownLevel: a level no Table III row names is an
// error, and the configuration is left as it was.
func TestScaleRefusesUnknownLevel(t *testing.T) {
	c := Baseline()
	if err := Scale(&c, "l3", 4); err == nil {
		t.Error("Scale accepted level l3")
	}
	if c != Baseline() {
		t.Error("a refused Scale changed the configuration")
	}
}

func TestCostEffectivePresets(t *testing.T) {
	ce := CostEffective16x48()
	if ce.Icnt.ReqFlitBytes != 16 || ce.Icnt.ReplyFlitBytes != 48 {
		t.Errorf("16+48 flits = %d+%d", ce.Icnt.ReqFlitBytes, ce.Icnt.ReplyFlitBytes)
	}
	// Table III cost-effective column.
	if ce.L2.MissQueueEntries != 32 || ce.L2.ResponseQueueEntries != 32 ||
		ce.L2.AccessQueueEntries != 32 || ce.L2.MSHREntries != 32 ||
		ce.L2.DataPortBytes != 32 || ce.L2.NumBanks != 12 {
		t.Errorf("cost-effective L2 knobs wrong: %+v", ce.L2)
	}
	if ce.L1.MissQueueEntries != 32 || ce.L1.MSHREntries != 48 || ce.Core.MemPipelineWidth != 40 {
		t.Errorf("cost-effective L1 knobs wrong: mshr %d missq %d pipe %d",
			ce.L1.MSHREntries, ce.L1.MissQueueEntries, ce.Core.MemPipelineWidth)
	}
	if ce.DRAM.SchedQueueEntries != 16 || ce.DRAM.BanksPerChip != 16 || ce.DRAM.BusWidthBits != 384 {
		t.Errorf("cost-effective must keep baseline DRAM: %+v", ce.DRAM)
	}

	if c := CostEffective16x68(); c.Icnt.ReqFlitBytes != 16 || c.Icnt.ReplyFlitBytes != 68 {
		t.Errorf("16+68 flits = %d+%d", c.Icnt.ReqFlitBytes, c.Icnt.ReplyFlitBytes)
	}
	if c := CostEffective32x52(); c.Icnt.ReqFlitBytes != 32 || c.Icnt.ReplyFlitBytes != 52 {
		t.Errorf("32+52 flits = %d+%d", c.Icnt.ReqFlitBytes, c.Icnt.ReplyFlitBytes)
	}
	// The asymmetric-only config keeps baseline queues.
	ao := AsymmetricOnly()
	if ao.L1.MSHREntries != 32 || ao.L2.MissQueueEntries != 8 {
		t.Errorf("asymmetric-only must keep baseline queues")
	}
	for _, c := range []Config{CostEffective16x48(), CostEffective16x68(), CostEffective32x52(), AsymmetricOnly()} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
}

func TestIdealModes(t *testing.T) {
	p := InfiniteBW()
	if p.Mode != ModeInfiniteBW {
		t.Errorf("InfiniteBW mode = %v", p.Mode)
	}
	if p.IdealL2HitLatency != 120 || p.IdealMemLatency != 220 {
		t.Errorf("ideal latencies = %d/%d, want 120/220", p.IdealL2HitLatency, p.IdealMemLatency)
	}
	d := InfiniteDRAM()
	if !d.DRAM.Infinite || d.DRAM.InfiniteLatency != 90 {
		t.Errorf("InfiniteDRAM = %+v", d.DRAM)
	}
	if d.Mode != ModeNormal {
		t.Errorf("InfiniteDRAM must keep the real cache hierarchy")
	}
	f := FixedL1MissLatency(300)
	if f.Mode != ModeFixedL1MissLat || f.FixedL1MissLatency != 300 {
		t.Errorf("FixedL1MissLatency = %+v", f)
	}
	for _, c := range []Config{p, d, f, FixedL1MissLatency(0)} {
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", c.Name, err)
		}
	}
}

func TestWithCoreClock(t *testing.T) {
	c := WithCoreClock(Baseline(), 1200)
	if c.Core.ClockMHz != 1200 {
		t.Errorf("core clock = %g", c.Core.ClockMHz)
	}
	if c.L2.ClockMHz != 700 || c.DRAM.ClockMHz != 924 {
		t.Errorf("memory clocks must stay fixed: L2 %g dram %g", c.L2.ClockMHz, c.DRAM.ClockMHz)
	}
	if c.Name != "baseline-core-1200MHz" {
		t.Errorf("name = %q, want the design point appended to the base name", c.Name)
	}
	if d := WithCoreClock(ScaledL2(), 800); d.Name != "L2-4x-core-800MHz" {
		t.Errorf("derived name = %q, provenance of the base config lost", d.Name)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	bad := Baseline()
	bad.L2.NumBanks = 7 // not divisible by 6 partitions
	if err := bad.Validate(); err == nil {
		t.Error("expected error for banks not divisible by partitions")
	}
	bad2 := Baseline()
	bad2.L1.LineBytes = 96
	if err := bad2.Validate(); err == nil {
		t.Error("expected error for non-power-of-two line size")
	}
	bad3 := Baseline()
	bad3.Core.NumCores = 0
	if err := bad3.Validate(); err == nil {
		t.Error("expected error for zero cores")
	}
}

func TestModeString(t *testing.T) {
	if ModeNormal.String() != "normal" || ModeInfiniteBW.String() != "infinite-bw" {
		t.Error("mode strings wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode must still format")
	}
}

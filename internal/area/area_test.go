package area

import (
	"math"
	"testing"

	"gpumembw/internal/config"
)

func TestBaselineHasZeroOverhead(t *testing.T) {
	base := config.Baseline()
	e := Compare(&base, &base)
	if e.TotalMM2 != 0 || e.StorageKB != 0 {
		t.Fatalf("baseline vs baseline = %+v", e)
	}
}

func TestAsymmetric16x48HasNoWireOverhead(t *testing.T) {
	base := config.Baseline()
	ce := config.CostEffective16x48()
	e := Compare(&base, &ce)
	if e.CrossbarMM2 != 0 {
		t.Fatalf("16+48 keeps total flit bytes at 64; wire delta = %g mm²", e.CrossbarMM2)
	}
	if e.StorageKB <= 0 {
		t.Fatal("cost-effective queues must add storage")
	}
	// Paper: ≈1.1% overhead for the storage-only configuration.
	if e.OverheadFrac < 0.005 || e.OverheadFrac > 0.02 {
		t.Fatalf("16+48 overhead = %.2f%%, want ≈1.1%%", 100*e.OverheadFrac)
	}
}

func TestWiderCrossbarsCost20BytesOfWire(t *testing.T) {
	base := config.Baseline()
	for _, cfg := range []config.Config{config.CostEffective16x68(), config.CostEffective32x52()} {
		e := Compare(&base, &cfg)
		// Paper: +20 B of point-to-point wires = 3.62 mm².
		if math.Abs(e.CrossbarMM2-3.625) > 0.01 {
			t.Errorf("%s crossbar delta = %g mm², want ≈3.62", cfg.Name, e.CrossbarMM2)
		}
		// Paper: ≈1.6% net overhead including buffers and MSHRs.
		if e.OverheadFrac < 0.01 || e.OverheadFrac > 0.025 {
			t.Errorf("%s overhead = %.2f%%, want ≈1.6%%", cfg.Name, 100*e.OverheadFrac)
		}
	}
}

func TestStorageAccountingMatchesPaperDensity(t *testing.T) {
	// 94 KB must map to 7.48 mm² by construction.
	if got := 94 * MM2PerKB; math.Abs(got-7.48) > 1e-9 {
		t.Fatalf("density calibration broken: %g", got)
	}
	// 64 B of flit width must map to 11.6 mm² of wires.
	if got := 64 * CrossbarWireMM2PerByte; math.Abs(got-11.6) > 1e-9 {
		t.Fatalf("wire calibration broken: %g", got)
	}
}

// TestCompareDoesNotAllocate pins Compare at zero allocations: the
// explorer scores every probe with it.
func TestCompareDoesNotAllocate(t *testing.T) {
	base, cfg := config.Baseline(), config.ScaledAll()
	var e Estimate
	if n := testing.AllocsPerRun(100, func() { e = Compare(&base, &cfg) }); n != 0 {
		t.Errorf("Compare allocates %v times per call", n)
	}
	if e.StorageKB <= 0 {
		t.Errorf("All-4x adds no storage: %+v", e)
	}
}

func TestScaledL2CostsMoreThanCostEffective(t *testing.T) {
	base := config.Baseline()
	ce := config.CostEffective16x68()
	scaled := config.ScaledL2()
	eCE := Compare(&base, &ce)
	eScaled := Compare(&base, &scaled)
	if eScaled.TotalMM2 <= eCE.TotalMM2 {
		t.Fatalf("4× L2 scaling (%.1f mm²) must cost more than cost-effective (%.1f mm²)",
			eScaled.TotalMM2, eCE.TotalMM2)
	}
}

func TestShrinkingReducesEstimate(t *testing.T) {
	base := config.Baseline()
	small := config.Baseline()
	small.L2.AccessQueueEntries = 4
	e := Compare(&base, &small)
	if e.StorageKB >= 0 {
		t.Fatalf("shrinking queues must yield negative storage, got %g KB", e.StorageKB)
	}
}

// TestTableIIIMitigationLadderGolden pins the full mitigation-ladder
// estimates: each Table III rung — MSHRs, miss queues, L2 banking and
// DRAM scaling at the paper's 2× and 4× points, plus the all-4×
// combination — against exact golden StorageKB/TotalMM2/OverheadFrac
// values. Any change to the area model's accounting (entry widths,
// density calibration, which structures are counted) shows up here as
// a diff against the numbers EXPERIMENTS.md reports.
func TestTableIIIMitigationLadderGolden(t *testing.T) {
	base := config.Baseline()
	ladder := []struct {
		name                              string
		apply                             func(*config.Config)
		storageKB, totalMM2, overheadFrac float64
	}{
		{"mshr-2x", func(c *config.Config) { c.L1.MSHREntries *= 2; c.L2.MSHREntries *= 2 },
			6.75, 0.537128, 0.000767325},
		{"mshr-4x", func(c *config.Config) { c.L1.MSHREntries *= 4; c.L2.MSHREntries *= 4 },
			20.25, 1.61138, 0.00230198},
		{"missq-2x", func(c *config.Config) { c.L1.MissQueueEntries *= 2; c.L2.MissQueueEntries *= 2 },
			1.6875, 0.134282, 0.000191831},
		{"missq-4x", func(c *config.Config) { c.L1.MissQueueEntries *= 4; c.L2.MissQueueEntries *= 4 },
			5.0625, 0.402846, 0.000575494},
		// Re-banking the same L2 capacity is area-neutral in the model:
		// per-bank structure sizes are unchanged, and the SRAM arrays are
		// repartitioned, not grown.
		{"l2banks-2x", func(c *config.Config) { c.L2.NumBanks *= 2 }, 0, 0, 0},
		{"l2banks-4x", func(c *config.Config) { c.L2.NumBanks *= 4 }, 0, 0, 0},
		{"dram-2x", func(c *config.Config) { config.Scale(c, config.LevelDRAM, 2) },
			0.75, 0.0596809, 8.52584e-05},
		{"dram-4x", func(c *config.Config) { config.Scale(c, config.LevelDRAM, 4) },
			2.25, 0.179043, 0.000255775},
		// The all-4× rung multiplies the per-bank miss-queue and MSHR
		// deltas across 48 banks, which is why it dwarfs the sum of the
		// individual rungs.
		{"all-4x", func(c *config.Config) {
			c.L1.MSHREntries *= 4
			c.L2.MSHREntries *= 4
			c.L1.MissQueueEntries *= 4
			c.L2.MissQueueEntries *= 4
			c.L2.NumBanks *= 4
			config.Scale(c, config.LevelDRAM, 4)
		}, 61.3125, 4.87891, 0.00696987},
	}
	for _, rung := range ladder {
		cfg := config.Baseline()
		rung.apply(&cfg)
		cfg.Name = rung.name
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", rung.name, err)
		}
		e := Compare(&base, &cfg)
		if math.Abs(e.StorageKB-rung.storageKB) > 1e-4 {
			t.Errorf("%s: StorageKB = %.6g, golden %.6g", rung.name, e.StorageKB, rung.storageKB)
		}
		if math.Abs(e.TotalMM2-rung.totalMM2) > 1e-4 {
			t.Errorf("%s: TotalMM2 = %.6g, golden %.6g", rung.name, e.TotalMM2, rung.totalMM2)
		}
		if math.Abs(e.OverheadFrac-rung.overheadFrac) > 1e-7 {
			t.Errorf("%s: OverheadFrac = %.6g, golden %.6g", rung.name, e.OverheadFrac, rung.overheadFrac)
		}
	}
}

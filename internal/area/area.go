// Package area estimates the silicon cost of memory-hierarchy
// configurations, calibrated to the GPUWattch-derived numbers the paper
// reports in §VII-C: buffer entries of 128 B, miss-queue and MSHR entries
// of 8 B, 7.48 mm² for 94 KB of added storage at 40 nm, a 27 mm² baseline
// crossbar of which 11.6 mm² is wires for 64 B of total flit width, and a
// 700 mm² die.
package area

import "gpumembw/internal/config"

const (
	// MM2PerKB converts added storage to area at 40 nm: the paper maps
	// 94 KB to 7.48 mm².
	MM2PerKB = 7.48 / 94.0

	// CrossbarWireMM2PerByte converts point-to-point flit bytes to wire
	// area: 11.6 mm² of wires for the 64 B (32+32) baseline.
	CrossbarWireMM2PerByte = 11.6 / 64.0

	// BaselineCrossbarMM2 is the total baseline interconnect area.
	BaselineCrossbarMM2 = 27.0

	// DieMM2 is the GTX 480 die area the paper normalizes against.
	DieMM2 = 700.0
)

// Estimate is the area cost of a configuration relative to a baseline.
type Estimate struct {
	StorageKB    float64 // added buffer/MSHR storage
	StorageMM2   float64
	CrossbarMM2  float64 // added crossbar wire area
	TotalMM2     float64
	OverheadFrac float64 // TotalMM2 / DieMM2
}

// Compare estimates the area delta of cfg over base.
//
// Storage deltas follow the paper's accounting: each Table III queue and
// MSHR (a config.TableIII row with an EntryBytes) counts its entry size
// per entry, once per core, L2 bank or DRAM partition of cfg by the row's
// level. Crossbar cost is wire-dominated and scales with the total
// per-connection flit bytes. Negative deltas (shrinking a structure)
// reduce the estimate.
func Compare(base, cfg *config.Config) Estimate {
	bytes := 0
	for r := range config.TableIII {
		row := &config.TableIII[r]
		for i := range row.Knobs {
			if row.EntryBytes > 0 {
				bytes += copies(cfg, row.Level) * (*row.Field(cfg, i) - *row.Field(base, i)) * row.EntryBytes
			}
		}
	}
	kb := float64(bytes) / 1024

	flitDelta := float64(cfg.Icnt.ReqFlitBytes + cfg.Icnt.ReplyFlitBytes -
		base.Icnt.ReqFlitBytes - base.Icnt.ReplyFlitBytes)
	xbar := flitDelta * CrossbarWireMM2PerByte

	e := Estimate{
		StorageKB:   kb,
		StorageMM2:  kb * MM2PerKB,
		CrossbarMM2: xbar,
	}
	e.TotalMM2 = e.StorageMM2 + e.CrossbarMM2
	e.OverheadFrac = e.TotalMM2 / DieMM2
	return e
}

// copies is how many instances of a level's structures cfg builds.
func copies(cfg *config.Config, level config.Level) int {
	switch level {
	case config.LevelL1:
		return cfg.Core.NumCores
	case config.LevelL2:
		return cfg.L2.NumBanks
	}
	return cfg.DRAM.NumPartitions
}

package exp

import (
	"fmt"
	"io"

	"gpumembw/internal/area"
	"gpumembw/internal/config"
)

// SpeedupRow holds one benchmark's speedups across a set of configurations.
type SpeedupRow struct {
	Bench    string    `json:"bench"`
	Speedups []float64 `json:"speedups"` // one per configuration, same order as the header
}

// asymmetricOnly is the mean speedup of the grid's last column: the
// standalone 16+48 crossbar, without the queue scaling of the
// cost-effective points.
func (s *Scheduler) asymmetricOnly(g *Grid) (float64, error) {
	t, err := s.speedups(g, len(g.Configs)-1, len(g.Configs))
	var sp []float64
	for _, r := range t.Rows {
		sp = append(sp, r.Speedups[0])
	}
	return mean(sp), err
}

// speedups assembles the grid's columns [lo, hi) relative to column 0,
// one row per workload.
func (s *Scheduler) speedups(g *Grid, lo, hi int) (*SpeedupTable, error) {
	sp, err := s.relative(g, lo, hi, true)
	t := &SpeedupTable{Configs: g.Configs[lo:hi]}
	for w, row := range sp {
		t.Rows = append(t.Rows, SpeedupRow{Bench: g.Workloads[w], Speedups: row})
	}
	return t, err
}

// writeSpeedups renders a Fig. 10/12-style table with an AVG row.
func writeSpeedups(w io.Writer, t *SpeedupTable) {
	if t != nil {
		avgTable(w, append([]string{"bench"}, t.Configs...), len(t.Rows),
			func(i int) (string, []float64) { return t.Rows[i].Bench, t.Rows[i].Speedups }, f2)
	}
}

// Fig11Point is one (benchmark, core clock) → normalized performance
// sample of the frequency-scaling experiment.
type Fig11Point struct {
	Bench    string  `json:"bench"`
	CoreMHz  float64 `json:"coreMHz"`
	NormPerf float64 `json:"normPerf"` // wall-clock performance relative to 1400 MHz
}

func writeFig11(w io.Writer, pts []Fig11Point) {
	writePivot(w, len(pts), func(i int) (string, string, float64) {
		return pts[i].Bench, fmt.Sprintf("%.1fGHz", pts[i].CoreMHz/1000), pts[i].NormPerf
	})
}

// writeTableIII renders the design space of Table III.
func writeTableIII(w io.Writer) {
	base := config.Baseline()
	scaled := config.ScaledAll()
	ce := config.CostEffective16x48()
	rows := [][]string{
		{"DRAM scheduler queue", "=", fmt.Sprint(base.DRAM.SchedQueueEntries), fmt.Sprint(scaled.DRAM.SchedQueueEntries), fmt.Sprint(ce.DRAM.SchedQueueEntries)},
		{"DRAM banks/chip", "=", fmt.Sprint(base.DRAM.BanksPerChip), fmt.Sprint(scaled.DRAM.BanksPerChip), fmt.Sprint(ce.DRAM.BanksPerChip)},
		{"DRAM bus width (bits)", "+", fmt.Sprint(base.DRAM.BusWidthBits), fmt.Sprint(scaled.DRAM.BusWidthBits), fmt.Sprint(ce.DRAM.BusWidthBits)},
		{"L2 miss queue", "=", fmt.Sprint(base.L2.MissQueueEntries), fmt.Sprint(scaled.L2.MissQueueEntries), fmt.Sprint(ce.L2.MissQueueEntries)},
		{"L2 response queue", "=", fmt.Sprint(base.L2.ResponseQueueEntries), fmt.Sprint(scaled.L2.ResponseQueueEntries), fmt.Sprint(ce.L2.ResponseQueueEntries)},
		{"L2 MSHR", "=", fmt.Sprint(base.L2.MSHREntries), fmt.Sprint(scaled.L2.MSHREntries), fmt.Sprint(ce.L2.MSHREntries)},
		{"L2 access queue", "=", fmt.Sprint(base.L2.AccessQueueEntries), fmt.Sprint(scaled.L2.AccessQueueEntries), fmt.Sprint(ce.L2.AccessQueueEntries)},
		{"L2 data port (bytes)", "+", fmt.Sprint(base.L2.DataPortBytes), fmt.Sprint(scaled.L2.DataPortBytes), fmt.Sprint(ce.L2.DataPortBytes)},
		{"Crossbar flits (req+reply)", "+",
			fmt.Sprintf("%d+%d", base.Icnt.ReqFlitBytes, base.Icnt.ReplyFlitBytes),
			fmt.Sprintf("%d+%d", scaled.Icnt.ReqFlitBytes, scaled.Icnt.ReplyFlitBytes),
			fmt.Sprintf("%d+%d", ce.Icnt.ReqFlitBytes, ce.Icnt.ReplyFlitBytes)},
		{"L2 banks", "+", fmt.Sprint(base.L2.NumBanks), fmt.Sprint(scaled.L2.NumBanks), fmt.Sprint(ce.L2.NumBanks)},
		{"L1 miss queue", "=", fmt.Sprint(base.L1.MissQueueEntries), fmt.Sprint(scaled.L1.MissQueueEntries), fmt.Sprint(ce.L1.MissQueueEntries)},
		{"L1 MSHR", "=", fmt.Sprint(base.L1.MSHREntries), fmt.Sprint(scaled.L1.MSHREntries), fmt.Sprint(ce.L1.MSHREntries)},
		{"Memory pipeline width", "=", fmt.Sprint(base.Core.MemPipelineWidth), fmt.Sprint(scaled.Core.MemPipelineWidth), fmt.Sprint(ce.Core.MemPipelineWidth)},
	}
	table(w, []string{"parameter", "type", "baseline", "scaled 4x", "cost-effective"}, rows)
}

// AreaRow is the §VII-C overhead estimate of one configuration.
type AreaRow struct {
	Config string `json:"config"`
	area.Estimate
}

func writeArea(w io.Writer, rows []AreaRow) {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Config,
			fmt.Sprintf("%.1f", r.StorageKB),
			fmt.Sprintf("%.2f", r.StorageMM2),
			fmt.Sprintf("%.2f", r.CrossbarMM2),
			fmt.Sprintf("%.2f", r.TotalMM2),
			pct(r.OverheadFrac),
		})
	}
	table(w, []string{"config", "storage KB", "storage mm2", "xbar mm2", "total mm2", "die overhead"}, out)
}

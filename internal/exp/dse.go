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

// Fig10Configs are the 4×-scaled design points of the exploration, in the
// paper's bar order.
func Fig10Configs() []config.Config {
	return []config.Config{
		config.ScaledL1(), config.ScaledL2(), config.ScaledDRAM(),
		config.ScaledL1L2(), config.ScaledL2DRAM(), config.ScaledAll(),
	}
}

// Fig10 runs every benchmark against the six scaled memory systems.
// Paper averages: L1 +4%, L2 +59%, DRAM +11%, L1+L2 +69%, L2+DRAM +76%,
// All +90%; mm drops 33% with L1-alone but gains 266% with L2-alone.
func (s *Scheduler) Fig10() ([]SpeedupRow, []string, error) {
	t, err := s.fig10(fig10Grid())
	return t.Rows, t.Configs, err
}

// fig10Grid is the baseline and the six scaled systems against every
// benchmark.
func fig10Grid() *Grid { return benchGrid(Benches(), Fig10Configs()...) }

func (s *Scheduler) fig10(g *Grid) (*SpeedupTable, error) { return s.speedups(g, 1, len(g.Configs)) }

// Fig12Configs are the cost-effective configurations plus the HBM
// comparison point, in the paper's bar order.
func Fig12Configs() []config.Config {
	return []config.Config{
		config.CostEffective16x48(), config.CostEffective16x68(),
		config.CostEffective32x52(), config.HBM(),
	}
}

// Fig12 runs the cost-effective design points. Paper averages: 16+48
// +23.4%, 16+68 +29%, 32+52 +25.7%, HBM +11%; lavaMD loses 37% on 16+48.
func (s *Scheduler) Fig12() ([]SpeedupRow, []string, error) {
	t, err := s.fig12(fig12Grid())
	return t.Rows, t.Configs, err
}

// fig12Grid is the baseline, the Fig. 12 design points and, last, the
// standalone asymmetric crossbar, against every benchmark.
func fig12Grid() *Grid {
	return benchGrid(Benches(), append(Fig12Configs(), config.AsymmetricOnly())...)
}

func (s *Scheduler) fig12(g *Grid) (*SpeedupTable, error) { return s.speedups(g, 1, len(g.Configs)-1) }

// asymmetricOnly measures the grid's last column, the standalone 16+48
// crossbar without the cost-effective queue scaling (paper: only +15.5%,
// demonstrating the need for synergistic scaling).
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

// WriteSpeedups renders a Fig. 10/12-style table with an AVG row.
func WriteSpeedups(w io.Writer, title, paperNote string, rows []SpeedupRow, configs []string) {
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, paperNote)
	avgTable(w, append([]string{"bench"}, configs...), len(rows),
		func(i int) (string, []float64) { return rows[i].Bench, rows[i].Speedups }, f2)
}

// Fig11Point is one (benchmark, core clock) → normalized performance
// sample of the frequency-scaling experiment.
type Fig11Point struct {
	Bench    string  `json:"bench"`
	CoreMHz  float64 `json:"coreMHz"`
	NormPerf float64 `json:"normPerf"` // wall-clock performance relative to 1400 MHz
}

// Fig11Clocks is the sweep of the paper's real-GPU experiment, in MHz.
var Fig11Clocks = []float64{1200, 1300, 1400, 1500, 1600}

// Fig11 sweeps the core clock with memory clocks fixed. The paper's
// real-GTX 480 result: up to 10% slowdown at higher core frequency for
// bandwidth-bound benchmarks (the L1 request rate outruns the L2), and
// gains at lower frequency.
func (s *Scheduler) Fig11() ([]Fig11Point, error) { return s.fig11(fig11Grid()) }

// fig11Grid is the baseline and one re-clocked baseline per core clock
// (1400 MHz is the baseline's own cell) against the Fig. 11 benchmarks.
func fig11Grid() *Grid {
	cfgs := make([]config.Config, len(Fig11Clocks))
	for i, mhz := range Fig11Clocks {
		cfgs[i] = config.WithCoreClock(config.Baseline(), mhz)
	}
	return benchGrid(Fig11Benches(), cfgs...)
}

func (s *Scheduler) fig11(g *Grid) ([]Fig11Point, error) {
	return points(s, g, func(b string, i int, v float64) Fig11Point { return Fig11Point{b, Fig11Clocks[i], v} })
}

// WriteFig11 renders the frequency sweep, one row per benchmark.
func WriteFig11(w io.Writer, pts []Fig11Point) {
	fmt.Fprintln(w, "Fig. 11 — wall-clock performance vs core clock, memory clocks fixed (normalized to 1.4 GHz)")
	fmt.Fprintln(w, "paper (real GTX 480): bandwidth-bound benchmarks slow down up to 10% at higher core clocks")
	writePivot(w, Fig11Clocks, func(c float64) string { return fmt.Sprintf("%.1fGHz", c/1000) }, len(pts),
		func(i int) (string, float64, float64) { return pts[i].Bench, pts[i].CoreMHz, pts[i].NormPerf })
}

// WriteTableIII renders the design space of Table III.
func WriteTableIII(w io.Writer) {
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
	fmt.Fprintln(w, "Table III — consolidated design space (Type '=' enables peak throughput; Type '+' raises it)")
	table(w, []string{"parameter", "type", "baseline", "scaled 4x", "cost-effective"}, rows)
}

// AreaRow is the §VII-C overhead estimate of one configuration.
type AreaRow struct {
	Config string `json:"config"`
	area.Estimate
}

// AreaAnalysis estimates the cost of the cost-effective configurations:
// the area columns of a grid with no workloads. Paper: storage ⇒ ≈1.1%
// die overhead; 16+68 and 32+52 add 3.62 mm² of wires for ≈1.6% total.
func AreaAnalysis() []AreaRow {
	g := benchGrid(nil, config.CostEffective16x48(), config.CostEffective16x68(),
		config.CostEffective32x52(), config.ScaledAll())
	var rows []AreaRow
	for c, est := range g.Areas()[1:] {
		rows = append(rows, AreaRow{Config: g.Configs[c+1], Estimate: est})
	}
	return rows
}

// WriteArea renders the area analysis.
func WriteArea(w io.Writer, rows []AreaRow) {
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
	fmt.Fprintln(w, "§VII-C — area overhead vs baseline (GPUWattch-calibrated; 700 mm² die)")
	fmt.Fprintln(w, "paper: 94 KB ⇒ 7.48 mm² (≈1.1%); +20 B flit wires ⇒ +3.62 mm² (≈1.6% total)")
	table(w, []string{"config", "storage KB", "storage mm2", "xbar mm2", "total mm2", "die overhead"}, out)
}

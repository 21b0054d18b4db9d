package exp

import (
	"fmt"
	"io"
	"strconv"
	"strings"

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

// writeTableIII renders the design space of Table III: each row's knobs
// on the baseline, the All-4x scaling and the 16+48 cost-effective point.
func writeTableIII(w io.Writer) {
	cfgs := []config.Config{config.Baseline(), config.ScaledAll(), config.CostEffective16x48()}
	var rows [][]string
	for r := range config.TableIII {
		p := &config.TableIII[r]
		row := []string{p.Param, p.Type}
		for c := range cfgs {
			vals := make([]string, len(p.Knobs))
			for i := range p.Knobs {
				vals[i] = strconv.Itoa(*p.Field(&cfgs[c], i))
			}
			row = append(row, strings.Join(vals, "+"))
		}
		rows = append(rows, row)
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

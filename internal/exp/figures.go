package exp

import (
	"fmt"
	"io"
	"sync"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/stats"
	"gpumembw/internal/trace"
)

// Fig1Row is one bar group of Fig. 1: issue-stall percentage, average L2
// hit latency and average memory latency on the baseline.
type Fig1Row struct {
	Bench     string  `json:"bench"`
	StallFrac float64 `json:"stallFrac"`
	L2AHL     float64 `json:"l2AHL"`
	AML       float64 `json:"aml"`
	DRAMEff   float64 `json:"dramEff"` // §IV-B1 companion series
}

// baselineGrid is the baseline × all-benchmark row under Figs. 1, 4, 5
// and 7–9, each of which projects one row out of every cell's metrics.
// Both axes are constants and six sections share the grid, so it is built
// once (a grid is immutable once built).
var baselineGrid = sync.OnceValue(func() *Grid { return benchGrid(Benches()) })

// perBench assembles one row per workload from the grid's base column.
func perBench[T any](s *Scheduler, g *Grid, row func(bench string, m core.Metrics) T) ([]T, error) {
	ms, err := s.column(g, 0)
	rows := make([]T, len(ms))
	for w, m := range ms {
		rows[w] = row(g.Workloads[w], m)
	}
	return rows, err
}

func fig1Row(b string, m core.Metrics) Fig1Row {
	return Fig1Row{Bench: b, StallFrac: m.IssueStallFrac, L2AHL: m.L2AHL, AML: m.AML, DRAMEff: m.DRAMBandwidthEff}
}

func writeFig1(w io.Writer, rows []Fig1Row) {
	avgTable(w, []string{"bench", "stall", "L2-AHL", "AML", "dram-eff"}, len(rows), func(i int) (string, []float64) {
		r := rows[i]
		return r.Bench, []float64{r.StallFrac, r.L2AHL, r.AML, r.DRAMEff}
	}, pct, f0, f0, pct)
}

// avgTable renders one row per (name, values) — each value through its
// column's format, the last format repeating — and an AVG row of the
// column means; nothing for n == 0.
func avgTable(w io.Writer, header []string, n int, row func(i int) (string, []float64), format ...func(float64) string) {
	if n == 0 {
		return
	}
	fm := func(c int) func(float64) string { return format[min(c, len(format)-1)] }
	out := make([][]string, n+1)
	sums := make([]float64, len(header)-1)
	for i := range n {
		name, vals := row(i)
		out[i] = []string{name}
		for c, v := range vals {
			out[i] = append(out[i], fm(c)(v))
			sums[c] += v
		}
	}
	out[n] = []string{"AVG"}
	for c, sum := range sums {
		out[n] = append(out[n], fm(c)(sum/float64(n)))
	}
	table(w, header, out)
}

// TableIIRow compares measured P∞ / P_DRAM speedups with the paper's.
type TableIIRow struct {
	Bench      string  `json:"bench"`
	PInf       float64 `json:"pInf"`
	PDRAM      float64 `json:"pDRAM"`
	PaperPInf  float64 `json:"paperPInf"`
	PaperPDRAM float64 `json:"paperPDRAM"`
}

func (s *Scheduler) tableII(g *Grid) ([]TableIIRow, error) {
	sp, err := s.relative(g, 1, len(g.Configs), true)
	if err != nil {
		return nil, err
	}
	var rows []TableIIRow
	for w, b := range trace.Table() { // the grid's workload axis, with the paper's numbers
		rows = append(rows, TableIIRow{
			Bench: b.Spec.Name, PInf: sp[w][0], PDRAM: sp[w][1],
			PaperPInf: b.PaperPInf, PaperPDRAM: b.PaperPDRAM,
		})
	}
	return rows, nil
}

func writeTableII(w io.Writer, rows []TableIIRow) {
	avgTable(w, []string{"bench", "P∞", "paper", "P_DRAM", "paper"}, len(rows), func(i int) (string, []float64) {
		r := rows[i]
		return r.Bench, []float64{r.PInf, r.PaperPInf, r.PDRAM, r.PaperPDRAM}
	}, f2)
}

// Fig3Point is one (benchmark, latency) → normalized-IPC sample.
type Fig3Point struct {
	Bench   string  `json:"bench"`
	Latency int     `json:"latency"`
	NormIPC float64 `json:"normIPC"`
}

// fig3Grid is the baseline and one fixed-latency design point per
// latency against the given benchmarks.
func fig3Grid(benches []string, lats []int) *Grid {
	cfgs := make([]config.Config, len(lats))
	for i, lat := range lats {
		cfgs[i] = config.FixedL1MissLatency(lat)
	}
	return benchGrid(benches, cfgs...)
}

// fig3 assembles a fig3Grid, each point labeled with its column's latency.
func (s *Scheduler) fig3(g *Grid) ([]Fig3Point, error) {
	return points(s, g, func(b string, cfg *config.Config, v float64) Fig3Point {
		return Fig3Point{b, cfg.FixedL1MissLatency, v}
	})
}

// points assembles one point per (workload, column after the base)
// normalized to the base, the base read once — Fig. 3's and Fig. 11's
// shape; pt labels each point from its column's configuration.
func points[T any](s *Scheduler, g *Grid, pt func(bench string, cfg *config.Config, v float64) T) ([]T, error) {
	norm, err := s.relative(g, 1, len(g.Configs), false)
	var pts []T
	for w, vs := range norm {
		for i, v := range vs {
			pts = append(pts, pt(g.Workloads[w], &g.cfgs[1+i], v))
		}
	}
	return pts, err
}

func writeFig3(w io.Writer, pts []Fig3Point) {
	writePivot(w, len(pts), func(i int) (string, string, float64) { return pts[i].Bench, fmt.Sprint(pts[i].Latency), pts[i].NormIPC })
}

// writePivot renders (benchmark, column) → value points in the order
// points makes them, benchmark-major, as one row per benchmark under the
// first benchmark's columns.
func writePivot(w io.Writer, n int, point func(i int) (bench, col string, v float64)) {
	header, out := []string{"bench"}, [][]string{}
	for i := range n {
		b, col, v := point(i)
		if len(out) == 0 || out[len(out)-1][0] != b {
			out = append(out, []string{b})
		}
		if len(out) == 1 {
			header = append(header, col)
		}
		out[len(out)-1] = append(out[len(out)-1], f2(v))
	}
	table(w, header, out)
}

// OccupancyRow is one stacked bar of Fig. 4 or Fig. 5.
type OccupancyRow struct {
	Bench     string                          `json:"bench"`
	Fractions [stats.OccupancyBuckets]float64 `json:"fractions"`
}

func fig4Row(b string, m core.Metrics) OccupancyRow {
	return OccupancyRow{Bench: b, Fractions: m.L2AccessOcc.Fractions()}
}

func fig5Row(b string, m core.Metrics) OccupancyRow {
	return OccupancyRow{Bench: b, Fractions: m.DRAMSchedOcc.Fractions()}
}

// writeOccupancy renders Fig. 4 or Fig. 5, its AVG row the mean full
// fraction alone.
func writeOccupancy(w io.Writer, rows []OccupancyRow) {
	if len(rows) == 0 {
		return
	}
	var out [][]string
	var full []float64
	for _, r := range rows {
		row := []string{r.Bench}
		for _, f := range r.Fractions {
			row = append(row, pct(f))
		}
		out = append(out, row)
		full = append(full, r.Fractions[stats.OccupancyBuckets-1])
	}
	out = append(out, []string{"AVG", "", "", "", "", pct(mean(full))})
	table(w, append([]string{"bench"}, stats.BucketLabels[:]...), out)
}

// BreakdownRow is one stacked bar of Figs. 7, 8 or 9.
type BreakdownRow struct {
	Bench     string    `json:"bench"`
	Labels    []string  `json:"labels"`
	Fractions []float64 `json:"fractions"`
}

func fig7Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.IssueStalls) }

func fig8Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.L2Stalls) }

func fig9Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.L1Stalls) }

func breakdownRow(bench string, bd *stats.Breakdown) BreakdownRow {
	return BreakdownRow{Bench: bench, Labels: bd.Labels, Fractions: bd.Fractions()}
}

// writeBreakdown renders a stall-distribution figure with an AVG row.
func writeBreakdown(w io.Writer, rows []BreakdownRow) {
	if len(rows) > 0 {
		avgTable(w, append([]string{"bench"}, rows[0].Labels...), len(rows),
			func(i int) (string, []float64) { return rows[i].Bench, rows[i].Fractions }, pct)
	}
}

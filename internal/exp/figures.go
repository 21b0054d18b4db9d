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

// Every exported figure method below is "build my grid, assemble from
// it": nothing is prefetched, so a cell no RunJobs has run simulates
// serially on first read. Collect prefetches the same grid and calls the
// same assembler.

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

// Fig1 measures stalls and latencies for every benchmark on the baseline.
// Paper averages: 62% stall, 303-cycle L2-AHL, 452-cycle AML; DRAM
// bandwidth efficiency 41% average, 65% max (stencil).
func (s *Scheduler) Fig1() ([]Fig1Row, error) { return perBench(s, baselineGrid(), fig1Row) }

func fig1Row(b string, m core.Metrics) Fig1Row {
	return Fig1Row{Bench: b, StallFrac: m.IssueStallFrac, L2AHL: m.L2AHL, AML: m.AML, DRAMEff: m.DRAMBandwidthEff}
}

// WriteFig1 renders Fig. 1 with an AVG row.
func WriteFig1(w io.Writer, rows []Fig1Row) {
	fmt.Fprintln(w, "Fig. 1 — issue stalls, L2 average hit latency, average memory latency (baseline)")
	fmt.Fprintln(w, "paper AVG: stall 62%, L2-AHL 303, AML 452; DRAM bandwidth efficiency avg 41%, max 65%")
	avgTable(w, []string{"bench", "stall", "L2-AHL", "AML", "dram-eff"}, len(rows), func(i int) (string, []float64) {
		r := rows[i]
		return r.Bench, []float64{r.StallFrac, r.L2AHL, r.AML, r.DRAMEff}
	}, pct, f0, f0, pct)
}

// avgTable renders one row per (name, values) — each value through its
// column's format, the last format repeating — and an AVG row of the
// column means.
func avgTable(w io.Writer, header []string, n int, row func(i int) (string, []float64), format ...func(float64) string) {
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
		out[n] = append(out[n], fm(c)(sum/float64(max(n, 1))))
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

// TableII runs every benchmark under the two ideal memory systems.
// Paper averages: P∞ 2.37×, P_DRAM 1.15×.
func (s *Scheduler) TableII() ([]TableIIRow, error) { return s.tableII(tableIIGrid()) }

// tableIIGrid is baseline, P∞ and P_DRAM against the benchmarks in Table
// II order.
func tableIIGrid() *Grid {
	return benchGrid(trace.Names(), config.InfiniteBW(), config.InfiniteDRAM())
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

// WriteTableII renders Table II with measured-vs-paper columns.
func WriteTableII(w io.Writer, rows []TableIIRow) {
	fmt.Fprintln(w, "Table II — speedup with infinite-bandwidth memory (P∞) and infinite-bandwidth DRAM (P_DRAM)")
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

// Fig3Latencies is the default sweep of the fixed L1-miss-latency study.
var Fig3Latencies = []int{0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800}

// Fig3 sweeps the fixed L1 miss latency for the representative benchmarks,
// reporting IPC normalized to each benchmark's baseline.
func (s *Scheduler) Fig3(benches []string, lats []int) ([]Fig3Point, error) {
	if benches == nil {
		benches = Fig3Benches()
	}
	if lats == nil {
		lats = Fig3Latencies
	}
	return s.fig3(fig3Grid(benches, lats), lats)
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

func (s *Scheduler) fig3(g *Grid, lats []int) ([]Fig3Point, error) {
	return points(s, g, func(b string, i int, v float64) Fig3Point { return Fig3Point{b, lats[i], v} })
}

// points assembles one point per (workload, column after the base)
// normalized to the base, the base read once — Fig. 3's and Fig. 11's
// shape.
func points[T any](s *Scheduler, g *Grid, pt func(bench string, col int, v float64) T) ([]T, error) {
	norm, err := s.relative(g, 1, len(g.Configs), false)
	var pts []T
	for w, vs := range norm {
		for i, v := range vs {
			pts = append(pts, pt(g.Workloads[w], i, v))
		}
	}
	return pts, err
}

// WriteFig3 renders the sweep as one row per benchmark.
func WriteFig3(w io.Writer, pts []Fig3Point, lats []int) {
	if lats == nil {
		lats = Fig3Latencies
	}
	fmt.Fprintln(w, "Fig. 3 — IPC (normalized to baseline) vs fixed L1 miss latency")
	fmt.Fprintln(w, "paper: plateau at small latencies, steep decline beyond; baseline crosses 1.0 well past the plateau")
	writePivot(w, lats, func(l int) string { return fmt.Sprint(l) }, len(pts),
		func(i int) (string, int, float64) { return pts[i].Bench, pts[i].Latency, pts[i].NormIPC })
}

// writePivot renders (benchmark, column) → value points — Fig. 3's and
// Fig. 11's shape — as one row per benchmark in first-appearance order
// and one column per key of cols; a missing point renders as 0.
func writePivot[K comparable](w io.Writer, cols []K, label func(K) string, n int, point func(i int) (string, K, float64)) {
	header := []string{"bench"}
	for _, k := range cols {
		header = append(header, label(k))
	}
	byBench := map[string]map[K]float64{}
	var order []string
	for i := 0; i < n; i++ {
		b, k, v := point(i)
		if byBench[b] == nil {
			byBench[b] = map[K]float64{}
			order = append(order, b)
		}
		byBench[b][k] = v
	}
	var out [][]string
	for _, b := range order {
		row := []string{b}
		for _, k := range cols {
			row = append(row, f2(byBench[b][k]))
		}
		out = append(out, row)
	}
	table(w, header, out)
}

// OccupancyRow is one stacked bar of Fig. 4 or Fig. 5.
type OccupancyRow struct {
	Bench     string                          `json:"bench"`
	Fractions [stats.OccupancyBuckets]float64 `json:"fractions"`
}

// Fig4 returns the L2 access-queue occupancy histograms (paper: queues
// completely full for 46% of their usage lifetime on average).
func (s *Scheduler) Fig4() ([]OccupancyRow, error) { return perBench(s, baselineGrid(), fig4Row) }

func fig4Row(b string, m core.Metrics) OccupancyRow {
	return OccupancyRow{Bench: b, Fractions: m.L2AccessOcc.Fractions()}
}

// Fig5 returns the DRAM scheduler-queue occupancy histograms (paper: full
// for 39% of usage lifetime on average).
func (s *Scheduler) Fig5() ([]OccupancyRow, error) { return perBench(s, baselineGrid(), fig5Row) }

func fig5Row(b string, m core.Metrics) OccupancyRow {
	return OccupancyRow{Bench: b, Fractions: m.DRAMSchedOcc.Fractions()}
}

// WriteOccupancy renders Fig. 4 or Fig. 5.
func WriteOccupancy(w io.Writer, title, paperNote string, rows []OccupancyRow) {
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
	avg := []string{"AVG", "", "", "", "", pct(mean(full))}
	out = append(out, avg)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, paperNote)
	table(w, append([]string{"bench"}, stats.BucketLabels[:]...), out)
}

// BreakdownRow is one stacked bar of Figs. 7, 8 or 9.
type BreakdownRow struct {
	Bench     string    `json:"bench"`
	Labels    []string  `json:"labels"`
	Fractions []float64 `json:"fractions"`
}

// Fig7 returns the issue-stall distributions (paper AVG: str-MEM 71%,
// data-MEM 15%, fetch 8%, data-ALU 5.5%, str-ALU 0.5%).
func (s *Scheduler) Fig7() ([]BreakdownRow, error) { return perBench(s, baselineGrid(), fig7Row) }

func fig7Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.IssueStalls) }

// Fig8 returns the L2 stall distributions (paper AVG: bp-ICNT 42%,
// bp-DRAM 35%, port 12%, cache 8%, mshr 3%).
func (s *Scheduler) Fig8() ([]BreakdownRow, error) { return perBench(s, baselineGrid(), fig8Row) }

func fig8Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.L2Stalls) }

// Fig9 returns the L1 stall distributions (paper AVG: bp-L2 48%,
// mshr 41%, cache 11%).
func (s *Scheduler) Fig9() ([]BreakdownRow, error) { return perBench(s, baselineGrid(), fig9Row) }

func fig9Row(b string, m core.Metrics) BreakdownRow { return breakdownRow(b, m.L1Stalls) }

func breakdownRow(bench string, bd *stats.Breakdown) BreakdownRow {
	return BreakdownRow{Bench: bench, Labels: bd.Labels, Fractions: bd.Fractions()}
}

// WriteBreakdown renders a stall-distribution figure with an AVG row.
func WriteBreakdown(w io.Writer, title, paperNote string, rows []BreakdownRow) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, paperNote)
	avgTable(w, append([]string{"bench"}, rows[0].Labels...), len(rows),
		func(i int) (string, []float64) { return rows[i].Bench, rows[i].Fractions }, pct)
}

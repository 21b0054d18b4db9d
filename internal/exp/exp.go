// Package exp reproduces every table and figure of the paper's evaluation:
// Fig. 1 (stalls and latencies), Table II (P∞, P_DRAM), Fig. 3 (latency
// sweep), Figs. 4–5 (queue occupancy), Figs. 7–9 (stall taxonomies),
// Fig. 10 (4× design-space exploration), Fig. 11 (core-frequency scaling),
// Fig. 12 (cost-effective configurations) and the §VII-C area analysis.
//
// The Scheduler is the execution engine behind all of them: it expands
// figure/table requests into deduplicated (config, benchmark) jobs, runs
// them on a worker pool, and memoizes results so cells shared between
// figures — the 19 baseline runs underlie Figs. 1, 4, 5, 7–9 and every
// speedup denominator of Figs. 10–12 — simulate exactly once.
//
// Every table and figure is one row of sectionTable (report.go), and that
// row is its only statement: a name, the title and paper reference it
// prints under, a grid (grid.go: configurations × workloads, the baseline
// in column 0), a fill that assembles the section's Results field by
// reading that grid and a write that renders its body. Sections, JobsFor,
// Collect and WriteText are loops over the table, Sweep is the same grid
// read once per cell, and adding a figure is adding its Results field and
// its row.
package exp

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"gpumembw/internal/trace"
)

// Benches returns the benchmark names in the Fig. 1 x-axis order.
func Benches() []string { return trace.Fig1Names() }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// table writes an aligned text table; nothing when there are no rows.
func table(w io.Writer, header []string, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(tw, strings.Join(sep, "\t"))
	for _, row := range rows {
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

func f2(x float64) string  { return fmt.Sprintf("%.2f", x) }
func f0(x float64) string  { return fmt.Sprintf("%.0f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// SpeedupTable couples a Fig. 10/12-style speedup matrix with its
// configuration (column) names.
type SpeedupTable struct {
	Configs []string     `json:"configs"`
	Rows    []SpeedupRow `json:"rows"`
}

// Results holds the structured data of every requested report section —
// the machine-readable form of the paper's evaluation. Sections that were
// not requested stay zero and are omitted from JSON.
type Results struct {
	Sections       []string       `json:"sections"`
	Fig1           []Fig1Row      `json:"fig1,omitempty"`
	TableII        []TableIIRow   `json:"tableII,omitempty"`
	Fig3           []Fig3Point    `json:"fig3,omitempty"`
	Fig4           []OccupancyRow `json:"fig4,omitempty"`
	Fig5           []OccupancyRow `json:"fig5,omitempty"`
	Fig7           []BreakdownRow `json:"fig7,omitempty"`
	Fig8           []BreakdownRow `json:"fig8,omitempty"`
	Fig9           []BreakdownRow `json:"fig9,omitempty"`
	Fig10          *SpeedupTable  `json:"fig10,omitempty"`
	Fig11          []Fig11Point   `json:"fig11,omitempty"`
	Fig12          *SpeedupTable  `json:"fig12,omitempty"`
	AsymmetricOnly *float64       `json:"asymmetricOnly,omitempty"`
	Area           []AreaRow      `json:"area,omitempty"`
	Engine         Stats          `json:"engine"`
}

// section is one row of the report: what it is called, which cells it is
// made of, how its Results field is assembled from them and how that
// field renders. A new table or figure is one more row (plus its Results
// field); JobsFor, Collect, WriteText, Sections and section validation
// all read this table and hold no per-section code.
type section struct {
	name string
	// grid states the section's cells; nil for a section that simulates
	// nothing.
	grid func() *Grid
	// fill assembles the section's Results field from its prefetched grid
	// (g is nil when grid is); nil for a section with no data.
	fill func(s *Scheduler, g *Grid, res *Results) error
	// write renders the section from res; WriteText adds the blank line
	// after it.
	write func(w io.Writer, res *Results)
}

// sectionTable is the report, in the paper's presentation order.
var sectionTable = []section{
	{name: "tableI",
		write: func(w io.Writer, _ *Results) { WriteTableI(w) }},
	{name: "fig1", grid: baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig1, err = perBench(s, g, fig1Row); return },
		write: func(w io.Writer, res *Results) { WriteFig1(w, res.Fig1) }},
	{name: "tableII", grid: tableIIGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.TableII, err = s.tableII(g); return },
		write: func(w io.Writer, res *Results) { WriteTableII(w, res.TableII) }},
	{name: "fig3", grid: func() *Grid { return fig3Grid(Fig3Benches(), Fig3Latencies) },
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) {
			res.Fig3, err = s.fig3(g, Fig3Latencies)
			return
		},
		write: func(w io.Writer, res *Results) { WriteFig3(w, res.Fig3, nil) }},
	{name: "fig4", grid: baselineGrid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig4, err = perBench(s, g, fig4Row); return },
		write: func(w io.Writer, res *Results) {
			WriteOccupancy(w, "Fig. 4 — L2 access-queue occupancy over usage lifetime",
				"paper AVG: queues completely full 46% of usage lifetime", res.Fig4)
		}},
	{name: "fig5", grid: baselineGrid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig5, err = perBench(s, g, fig5Row); return },
		write: func(w io.Writer, res *Results) {
			WriteOccupancy(w, "Fig. 5 — DRAM scheduler-queue occupancy over usage lifetime",
				"paper AVG: queues completely full 39% of usage lifetime", res.Fig5)
		}},
	{name: "fig7", grid: baselineGrid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig7, err = perBench(s, g, fig7Row); return },
		write: func(w io.Writer, res *Results) {
			WriteBreakdown(w, "Fig. 7 — issue-stall distribution",
				"paper AVG: data-MEM 15%, data-ALU 5.5%, str-MEM 71%, str-ALU 0.5%, fetch 8%", res.Fig7)
		}},
	{name: "fig8", grid: baselineGrid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig8, err = perBench(s, g, fig8Row); return },
		write: func(w io.Writer, res *Results) {
			WriteBreakdown(w, "Fig. 8 — L2 stall distribution",
				"paper AVG: bp-ICNT 42%, port 12%, cache 8%, mshr 3%, bp-DRAM 35%", res.Fig8)
		}},
	{name: "fig9", grid: baselineGrid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig9, err = perBench(s, g, fig9Row); return },
		write: func(w io.Writer, res *Results) {
			WriteBreakdown(w, "Fig. 9 — L1 stall distribution",
				"paper AVG: cache 11%, mshr 41%, bp-L2 48%", res.Fig9)
		}},
	{name: "tableIII",
		write: func(w io.Writer, _ *Results) { WriteTableIII(w) }},
	{name: "fig10", grid: fig10Grid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig10, err = s.fig10(g); return },
		write: func(w io.Writer, res *Results) {
			if t := res.Fig10; t != nil {
				WriteSpeedups(w, "Fig. 10 — IPC with 4× bandwidth scaling (normalized to baseline)",
					"paper AVG: L1 1.04, L2 1.59, DRAM 1.11, L1+L2 1.69, L2+DRAM 1.76, All 1.90", t.Rows, t.Configs)
			}
		}},
	{name: "fig11", grid: fig11Grid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig11, err = s.fig11(g); return },
		write: func(w io.Writer, res *Results) { WriteFig11(w, res.Fig11) }},
	{name: "fig12", grid: fig12Grid,
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) {
			if res.Fig12, err = s.fig12(g); err != nil {
				return err
			}
			asym, err := s.asymmetricOnly(g)
			res.AsymmetricOnly = &asym
			return err
		},
		write: func(w io.Writer, res *Results) {
			if t := res.Fig12; t != nil {
				WriteSpeedups(w, "Fig. 12 — IPC with cost-effective configurations (normalized to baseline)",
					"paper AVG: 16+48 1.234, 16+68 1.29, 32+52 1.257, HBM 1.11; lavaMD drops 37% on 16+48", t.Rows, t.Configs)
				if res.AsymmetricOnly != nil {
					fmt.Fprintf(w, "standalone 16+48 crossbar without queue scaling: %.3f (paper: 1.155)\n", *res.AsymmetricOnly)
				}
			}
		}},
	{name: "area",
		fill:  func(_ *Scheduler, _ *Grid, res *Results) error { res.Area = AreaAnalysis(); return nil },
		write: func(w io.Writer, res *Results) { WriteArea(w, res.Area) }},
}

// Sections are the report section names accepted by Collect, Report and
// JobsFor, in the paper's presentation order.
var Sections = func() []string {
	names := make([]string, len(sectionTable))
	for i := range sectionTable {
		names[i] = sectionTable[i].name
	}
	return names
}()

// wanted returns the table rows a section selection names (nil or empty =
// all), each once, in the paper's order, and an error for the first name
// that is no section.
func wanted(names []string) ([]*section, error) {
	var rows []*section
	for i := range sectionTable {
		if r := &sectionTable[i]; len(names) == 0 || slices.Contains(names, r.name) {
			rows = append(rows, r)
		}
	}
	for _, n := range names {
		if !slices.Contains(Sections, n) {
			return rows, fmt.Errorf("exp: unknown section %q (known: %v)", n, Sections)
		}
	}
	return rows, nil
}

// JobsFor expands the requested report sections (nil or empty = all) into
// the deduplicated list of simulation cells they need — each section's
// grid, config-major, in the paper's section order — so callers can size
// progress reporting off len(). Sections that need no simulation (tableI,
// tableIII, area) contribute nothing.
func JobsFor(sections []string) []Job {
	rows, _ := wanted(sections)
	var jobs []Job
	for _, r := range rows {
		if r.grid != nil {
			jobs = append(jobs, r.grid().jobs...)
		}
	}
	return dedupeJobs(jobs)
}

// Collect runs the requested experiment sections (nil = all) and returns
// their structured results. Each section's grid is built once; all
// simulation happens up front on the worker pool via RunJobs over exactly
// the grids' cells; assembly afterwards is serial and reads those same
// grids, so it hits only the memo cache and results are deterministic for
// any worker count.
func (s *Scheduler) Collect(sections []string) (*Results, error) {
	rows, err := wanted(sections)
	if err != nil {
		return nil, err
	}
	grids := make([]*Grid, len(rows))
	var jobs []Job
	for i, r := range rows {
		if r.grid != nil {
			if grids[i] = r.grid(); grids[i].err != nil {
				return nil, grids[i].err
			}
			jobs = append(jobs, grids[i].jobs...)
		}
	}
	if err := s.RunJobs(jobs); err != nil {
		return nil, err
	}
	res := &Results{}
	for i, r := range rows {
		res.Sections = append(res.Sections, r.name)
		if r.fill != nil {
			if err := r.fill(s, grids[i], res); err != nil {
				return nil, err
			}
		}
	}
	res.Engine = s.Stats()
	return res, nil
}

// Report runs the requested experiment sections (nil = all) and writes the
// rendered text tables to w. It is the engine behind cmd/paperfigs and
// EXPERIMENTS.md.
func (s *Scheduler) Report(w io.Writer, sections []string) error {
	res, err := s.Collect(sections)
	if err != nil {
		return err
	}
	res.WriteText(w)
	return nil
}

// ReportJSON runs the requested experiment sections (nil = all) and writes
// them to w as indented JSON.
func (s *Scheduler) ReportJSON(w io.Writer, sections []string) error {
	res, err := s.Collect(sections)
	if err != nil {
		return err
	}
	return res.WriteJSON(w)
}

// WriteJSON marshals the results as indented JSON.
func (res *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteText renders every collected section as aligned text tables, in
// the paper's presentation order, a blank line after each. Only sections
// listed in res.Sections render (an empty Results renders nothing —
// unlike Collect's request argument, an empty list here does not mean
// "all").
func (res *Results) WriteText(w io.Writer) {
	if len(res.Sections) == 0 {
		return
	}
	rows, _ := wanted(res.Sections)
	for _, r := range rows {
		r.write(w, res)
		fmt.Fprintln(w)
	}
}

// WriteTableI renders the baseline architecture parameters.
func WriteTableI(w io.Writer) {
	fmt.Fprintln(w, "Table I — baseline architecture (GTX 480 / Fermi class)")
	rows := [][]string{
		{"Cores", "15 SMs, GTO scheduler, 48 warps/SM"},
		{"Clocks", "core 1.4 GHz; crossbar/L2 700 MHz; DRAM cmd 924 MHz"},
		{"L1D", "16 KB, 128 B lines, 4-way, LRU, write-evict, 32 MSHRs, 8-entry miss queue"},
		{"Interconnect", "crossbar, 32 B flits each direction"},
		{"L2", "768 KB, 128 B lines, 8-way, write-back, 12 banks, 32 MSHRs, 8-entry miss queue, 32 B port, 8-entry access queue"},
		{"DRAM", "GDDR5 924 MHz, FR-FCFS, 384-bit bus, 6 partitions, 16 banks/chip"},
		{"DRAM timing", "CCD=2 RRD=6 RCD=12 RAS=28 RP=12 RC=40 CL=12 WL=4 CDLR=5 WR=12"},
	}
	table(w, []string{"component", "configuration"}, rows)
}

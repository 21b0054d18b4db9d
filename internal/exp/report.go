package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"gpumembw/internal/config"
	"gpumembw/internal/trace"
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

// section is one row of the report and its only statement: what it is
// called, the title and the paper reference it prints under, which cells it
// is made of, how its Results field is assembled from them and how that
// field renders. A new table or figure is one more row (plus its Results
// field); JobsFor, Collect, WriteText, Sections and section validation
// all read this table and hold no per-section code.
type section struct {
	name, title string
	// paper is the paper's reference line printed under the title; "" for a
	// section with none.
	paper string
	// grid states the section's axes; nil for a section made of no
	// configuration.
	grid func() *Grid
	// fill assembles the section's Results field from its prefetched grid
	// (g is nil when grid is); nil for a section with no data.
	fill func(s *Scheduler, g *Grid, res *Results) error
	// write renders the section's body from res, and nothing when res holds
	// no data for it.
	write func(w io.Writer, res *Results)
}

// sectionTable is the report, in the paper's presentation order.
var sectionTable = []section{
	{name: "tableI", title: "Table I — baseline architecture (GTX 480 / Fermi class)",
		write: func(w io.Writer, _ *Results) { writeTableI(w) }},
	{name: "fig1", title: "Fig. 1 — issue stalls, L2 average hit latency, average memory latency (baseline)",
		paper: "paper AVG: stall 62%, L2-AHL 303, AML 452; DRAM bandwidth efficiency avg 41%, max 65%",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig1, err = perBench(s, g, fig1Row); return },
		write: func(w io.Writer, res *Results) { writeFig1(w, res.Fig1) }},
	{name: "tableII", title: "Table II — speedup with infinite-bandwidth memory (P∞) and infinite-bandwidth DRAM (P_DRAM)",
		grid:  func() *Grid { return benchGrid(trace.Names(), config.InfiniteBW(), config.InfiniteDRAM()) },
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.TableII, err = s.tableII(g); return },
		write: func(w io.Writer, res *Results) { writeTableII(w, res.TableII) }},
	{name: "fig3", title: "Fig. 3 — IPC (normalized to baseline) vs fixed L1 miss latency",
		paper: "paper: plateau at small latencies, steep decline beyond; baseline crosses 1.0 well past the plateau",
		grid: func() *Grid {
			return fig3Grid([]string{"cfd", "dwt2d", "leukocyte", "nn", "nw", "sc", "lbm", "ss"},
				[]int{0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700, 750, 800})
		},
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig3, err = s.fig3(g); return },
		write: func(w io.Writer, res *Results) { writeFig3(w, res.Fig3) }},
	{name: "fig4", title: "Fig. 4 — L2 access-queue occupancy over usage lifetime",
		paper: "paper AVG: queues completely full 46% of usage lifetime",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig4, err = perBench(s, g, fig4Row); return },
		write: func(w io.Writer, res *Results) { writeOccupancy(w, res.Fig4) }},
	{name: "fig5", title: "Fig. 5 — DRAM scheduler-queue occupancy over usage lifetime",
		paper: "paper AVG: queues completely full 39% of usage lifetime",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig5, err = perBench(s, g, fig5Row); return },
		write: func(w io.Writer, res *Results) { writeOccupancy(w, res.Fig5) }},
	{name: "fig7", title: "Fig. 7 — issue-stall distribution",
		paper: "paper AVG: data-MEM 15%, data-ALU 5.5%, str-MEM 71%, str-ALU 0.5%, fetch 8%",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig7, err = perBench(s, g, fig7Row); return },
		write: func(w io.Writer, res *Results) { writeBreakdown(w, res.Fig7) }},
	{name: "fig8", title: "Fig. 8 — L2 stall distribution",
		paper: "paper AVG: bp-ICNT 42%, port 12%, cache 8%, mshr 3%, bp-DRAM 35%",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig8, err = perBench(s, g, fig8Row); return },
		write: func(w io.Writer, res *Results) { writeBreakdown(w, res.Fig8) }},
	{name: "fig9", title: "Fig. 9 — L1 stall distribution",
		paper: "paper AVG: cache 11%, mshr 41%, bp-L2 48%",
		grid:  baselineGrid,
		fill:  func(s *Scheduler, g *Grid, res *Results) (err error) { res.Fig9, err = perBench(s, g, fig9Row); return },
		write: func(w io.Writer, res *Results) { writeBreakdown(w, res.Fig9) }},
	{name: "tableIII", title: "Table III — consolidated design space (Type '=' enables peak throughput; Type '+' raises it)",
		write: func(w io.Writer, _ *Results) { writeTableIII(w) }},
	{name: "fig10", title: "Fig. 10 — IPC with 4× bandwidth scaling (normalized to baseline)",
		paper: "paper AVG: L1 1.04, L2 1.59, DRAM 1.11, L1+L2 1.69, L2+DRAM 1.76, All 1.90",
		grid: func() *Grid {
			return benchGrid(Benches(), config.ScaledL1(), config.ScaledL2(), config.ScaledDRAM(),
				config.ScaledL1L2(), config.ScaledL2DRAM(), config.ScaledAll())
		},
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) {
			res.Fig10, err = s.speedups(g, 1, len(g.Configs))
			return
		},
		write: func(w io.Writer, res *Results) { writeSpeedups(w, res.Fig10) }},
	{name: "fig11", title: "Fig. 11 — wall-clock performance vs core clock, memory clocks fixed (normalized to 1.4 GHz)",
		paper: "paper (real GTX 480): bandwidth-bound benchmarks slow down up to 10% at higher core clocks",
		grid: func() *Grid {
			var cfgs []config.Config
			for _, mhz := range []float64{1200, 1300, 1400, 1500, 1600} {
				cfgs = append(cfgs, config.WithCoreClock(config.Baseline(), mhz))
			}
			return benchGrid([]string{"nn", "hybridsort", "sradv2", "bfs", "cfd", "leukocyte"}, cfgs...)
		},
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) {
			res.Fig11, err = points(s, g, func(b string, cfg *config.Config, v float64) Fig11Point { return Fig11Point{b, cfg.Core.ClockMHz, v} })
			return
		},
		write: func(w io.Writer, res *Results) { writeFig11(w, res.Fig11) }},
	{name: "fig12", title: "Fig. 12 — IPC with cost-effective configurations (normalized to baseline)",
		paper: "paper AVG: 16+48 1.234, 16+68 1.29, 32+52 1.257, HBM 1.11; lavaMD drops 37% on 16+48",
		// The last column, the standalone crossbar, is read apart from the
		// figure's own.
		grid: func() *Grid {
			return benchGrid(Benches(), config.CostEffective16x48(), config.CostEffective16x68(),
				config.CostEffective32x52(), config.HBM(), config.AsymmetricOnly())
		},
		fill: func(s *Scheduler, g *Grid, res *Results) (err error) {
			if res.Fig12, err = s.speedups(g, 1, len(g.Configs)-1); err != nil {
				return err
			}
			asym, err := s.asymmetricOnly(g)
			res.AsymmetricOnly = &asym
			return err
		},
		write: func(w io.Writer, res *Results) {
			writeSpeedups(w, res.Fig12)
			if res.Fig12 != nil && res.AsymmetricOnly != nil {
				fmt.Fprintf(w, "standalone 16+48 crossbar without queue scaling: %.3f (paper: 1.155)\n", *res.AsymmetricOnly)
			}
		}},
	{name: "area", title: "§VII-C — area overhead vs baseline (GPUWattch-calibrated; 700 mm² die)",
		paper: "paper: 94 KB ⇒ 7.48 mm² (≈1.1%); +20 B flit wires ⇒ +3.62 mm² (≈1.6% total)",
		// A grid with no workloads: only its area columns are read.
		grid: func() *Grid {
			return benchGrid(nil, config.CostEffective16x48(), config.CostEffective16x68(),
				config.CostEffective32x52(), config.ScaledAll())
		},
		fill: func(_ *Scheduler, g *Grid, res *Results) error {
			for c, est := range g.Areas()[1:] {
				res.Area = append(res.Area, AreaRow{Config: g.Configs[c+1], Estimate: est})
			}
			return nil
		},
		write: func(w io.Writer, res *Results) { writeArea(w, res.Area) }},
}

// Sections are the report section names accepted by Collect and JobsFor,
// in the paper's presentation order.
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

// WriteJSON marshals the results as indented JSON.
func (res *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// WriteText renders every collected section as aligned text tables, in
// the paper's presentation order: its title, its paper reference if it has
// one, its body and a blank line. A section with no data renders nothing,
// and only sections listed in res.Sections render (an empty Results
// renders nothing — unlike Collect's request argument, an empty list here
// does not mean "all"). The report reaches w in one write, whose error is
// returned.
func (res *Results) WriteText(w io.Writer) error {
	if len(res.Sections) == 0 {
		return nil
	}
	var buf bytes.Buffer
	rows, _ := wanted(res.Sections)
	for _, r := range rows {
		start := buf.Len()
		fmt.Fprintln(&buf, r.title)
		if r.paper != "" {
			fmt.Fprintln(&buf, r.paper)
		}
		body := buf.Len()
		if r.write(&buf, res); buf.Len() == body {
			buf.Truncate(start)
			continue
		}
		fmt.Fprintln(&buf)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// writeTableI renders the baseline architecture parameters.
func writeTableI(w io.Writer) {
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

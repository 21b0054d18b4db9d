package exp

import (
	"encoding/json"
	"fmt"
	"io"

	"gpumembw/internal/config"
	"gpumembw/internal/trace"
)

// Sections are the report section names accepted by Collect, Report and
// JobsFor, in the paper's presentation order.
var Sections = []string{
	"tableI", "fig1", "tableII", "fig3", "fig4", "fig5",
	"fig7", "fig8", "fig9", "tableIII", "fig10", "fig11", "fig12", "area",
}

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

// validateSections rejects unknown section names early, before any
// simulation runs.
func validateSections(sections []string) error {
	known := make(map[string]bool, len(Sections))
	for _, s := range Sections {
		known[s] = true
	}
	for _, s := range sections {
		if !known[s] {
			return fmt.Errorf("exp: unknown section %q (known: %v)", s, Sections)
		}
	}
	return nil
}

// JobsFor expands the requested report sections (nil or empty = all) into
// the deduplicated list of simulation cells they need, in deterministic
// paper order. Sections that need no simulation (tableI, tableIII, area)
// contribute nothing. Derived design points (Fig. 3's fixed latencies,
// Fig. 11's core clocks) come from the shared config builders, so the
// cells scheduled here and the cells the figure assemblers request carry
// the same names and memo keys.
func JobsFor(sections []string) []Job {
	want := sectionSet(sections)
	var jobs []Job
	addAll := func(cfg config.Config, benches []string) {
		for _, b := range benches {
			jobs = append(jobs, BenchJob(cfg, b))
		}
	}

	// The baseline × all-benchmark row underlies Figs. 1, 4, 5, 7, 8, 9
	// and every speedup denominator of Figs. 10 and 12.
	if want["fig1"] || want["fig4"] || want["fig5"] || want["fig7"] ||
		want["fig8"] || want["fig9"] || want["fig10"] || want["fig12"] {
		addAll(config.Baseline(), Benches())
	}
	if want["tableII"] {
		addAll(config.Baseline(), trace.Names())
		addAll(config.InfiniteBW(), trace.Names())
		addAll(config.InfiniteDRAM(), trace.Names())
	}
	if want["fig3"] {
		addAll(config.Baseline(), Fig3Benches())
		for _, lat := range Fig3Latencies {
			addAll(config.FixedL1MissLatency(lat), Fig3Benches())
		}
	}
	if want["fig10"] {
		for _, cfg := range Fig10Configs() {
			addAll(cfg, Benches())
		}
	}
	if want["fig11"] {
		addAll(config.Baseline(), Fig11Benches())
		for _, mhz := range Fig11Clocks {
			addAll(config.WithCoreClock(config.Baseline(), mhz), Fig11Benches())
		}
	}
	if want["fig12"] {
		for _, cfg := range Fig12Configs() {
			addAll(cfg, Benches())
		}
		addAll(config.AsymmetricOnly(), Benches())
	}
	// Deduplicate across sections (e.g. tableII and fig3 both want
	// baseline cells) so callers can size progress reporting off len().
	return dedupeJobs(jobs)
}

// sectionSet normalizes a section selection: nil or empty means all.
func sectionSet(sections []string) map[string]bool {
	want := make(map[string]bool, len(Sections))
	if len(sections) == 0 {
		sections = Sections
	}
	for _, s := range sections {
		want[s] = true
	}
	return want
}

// Collect runs the requested experiment sections (nil = all) and returns
// their structured results. All simulation happens up front on the worker
// pool via RunJobs; assembly afterwards is serial and hits only the memo
// cache, so results are deterministic for any worker count.
func (s *Scheduler) Collect(sections []string) (*Results, error) {
	if err := validateSections(sections); err != nil {
		return nil, err
	}
	if err := s.RunJobs(JobsFor(sections)); err != nil {
		return nil, err
	}
	want := sectionSet(sections)
	res := &Results{}
	for _, sec := range Sections {
		if want[sec] {
			res.Sections = append(res.Sections, sec)
		}
	}
	var err error
	if want["fig1"] {
		if res.Fig1, err = s.Fig1(); err != nil {
			return nil, err
		}
	}
	if want["tableII"] {
		if res.TableII, err = s.TableII(); err != nil {
			return nil, err
		}
	}
	if want["fig3"] {
		if res.Fig3, err = s.Fig3(nil, nil); err != nil {
			return nil, err
		}
	}
	if want["fig4"] {
		if res.Fig4, err = s.Fig4(); err != nil {
			return nil, err
		}
	}
	if want["fig5"] {
		if res.Fig5, err = s.Fig5(); err != nil {
			return nil, err
		}
	}
	if want["fig7"] {
		if res.Fig7, err = s.Fig7(); err != nil {
			return nil, err
		}
	}
	if want["fig8"] {
		if res.Fig8, err = s.Fig8(); err != nil {
			return nil, err
		}
	}
	if want["fig9"] {
		if res.Fig9, err = s.Fig9(); err != nil {
			return nil, err
		}
	}
	if want["fig10"] {
		rows, names, err := s.Fig10()
		if err != nil {
			return nil, err
		}
		res.Fig10 = &SpeedupTable{Configs: names, Rows: rows}
	}
	if want["fig11"] {
		if res.Fig11, err = s.Fig11(); err != nil {
			return nil, err
		}
	}
	if want["fig12"] {
		rows, names, err := s.Fig12()
		if err != nil {
			return nil, err
		}
		res.Fig12 = &SpeedupTable{Configs: names, Rows: rows}
		asym, err := s.AsymmetricOnlySpeedup()
		if err != nil {
			return nil, err
		}
		res.AsymmetricOnly = &asym
	}
	if want["area"] {
		res.Area = AreaAnalysis()
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
// the paper's presentation order. Only sections listed in res.Sections
// render (an empty Results renders nothing — unlike Collect's request
// argument, an empty list here does not mean "all").
func (res *Results) WriteText(w io.Writer) {
	want := make(map[string]bool, len(res.Sections))
	for _, sec := range res.Sections {
		want[sec] = true
	}
	nl := func() { fmt.Fprintln(w) }

	if want["tableI"] {
		WriteTableI(w)
		nl()
	}
	if want["fig1"] {
		WriteFig1(w, res.Fig1)
		nl()
	}
	if want["tableII"] {
		WriteTableII(w, res.TableII)
		nl()
	}
	if want["fig3"] {
		WriteFig3(w, res.Fig3, nil)
		nl()
	}
	if want["fig4"] {
		WriteOccupancy(w, "Fig. 4 — L2 access-queue occupancy over usage lifetime",
			"paper AVG: queues completely full 46% of usage lifetime", res.Fig4)
		nl()
	}
	if want["fig5"] {
		WriteOccupancy(w, "Fig. 5 — DRAM scheduler-queue occupancy over usage lifetime",
			"paper AVG: queues completely full 39% of usage lifetime", res.Fig5)
		nl()
	}
	if want["fig7"] {
		WriteBreakdown(w, "Fig. 7 — issue-stall distribution",
			"paper AVG: data-MEM 15%, data-ALU 5.5%, str-MEM 71%, str-ALU 0.5%, fetch 8%", res.Fig7)
		nl()
	}
	if want["fig8"] {
		WriteBreakdown(w, "Fig. 8 — L2 stall distribution",
			"paper AVG: bp-ICNT 42%, port 12%, cache 8%, mshr 3%, bp-DRAM 35%", res.Fig8)
		nl()
	}
	if want["fig9"] {
		WriteBreakdown(w, "Fig. 9 — L1 stall distribution",
			"paper AVG: cache 11%, mshr 41%, bp-L2 48%", res.Fig9)
		nl()
	}
	if want["tableIII"] {
		WriteTableIII(w)
		nl()
	}
	if want["fig10"] && res.Fig10 != nil {
		WriteSpeedups(w, "Fig. 10 — IPC with 4× bandwidth scaling (normalized to baseline)",
			"paper AVG: L1 1.04, L2 1.59, DRAM 1.11, L1+L2 1.69, L2+DRAM 1.76, All 1.90",
			res.Fig10.Rows, res.Fig10.Configs)
		nl()
	}
	if want["fig11"] {
		WriteFig11(w, res.Fig11)
		nl()
	}
	if want["fig12"] && res.Fig12 != nil {
		WriteSpeedups(w, "Fig. 12 — IPC with cost-effective configurations (normalized to baseline)",
			"paper AVG: 16+48 1.234, 16+68 1.29, 32+52 1.257, HBM 1.11; lavaMD drops 37% on 16+48",
			res.Fig12.Rows, res.Fig12.Configs)
		if res.AsymmetricOnly != nil {
			fmt.Fprintf(w, "standalone 16+48 crossbar without queue scaling: %.3f (paper: 1.155)\n", *res.AsymmetricOnly)
		}
		nl()
	}
	if want["area"] {
		WriteArea(w, res.Area)
		nl()
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

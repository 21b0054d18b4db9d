package exp

import (
	"cmp"
	"fmt"

	"gpumembw/internal/area"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/trace"
)

// Grid is a configurations × workloads cross product: the one description
// of a multi-cell request — a report section or figure, a sweep run here
// (Scheduler.Sweep) or served (POST /v1/sweeps), the §VII-C area rows, an
// exploration round. Each configuration column and each workload row is
// resolved once, at construction, and a cell is valid exactly when both of
// its halves are; so prefetching (Jobs) and assembly (Scheduler.column,
// Read) name the same cells by construction — an assembler cannot read a
// cell its grid did not schedule. Column 0 is what every other column is
// measured against, in speed (SweepResult.Speedups(0)) and in area (Areas).
type Grid struct {
	Configs   []string `json:"configs"`   // column labels
	Workloads []string `json:"workloads"` // row labels

	cfgs []config.Config // resolved columns
	jobs []Job           // resolved cells, config-major: every workload of Configs[0], then of Configs[1], ...
	// err is the first cell, in config-major order, that did not resolve
	// (a *CellError). Such a grid schedules nothing and every read returns
	// err.
	err error
}

// CellError names a grid's first cell, in config-major order, that does
// not resolve, and why: its configuration's error if that half is
// invalid, else its workload's.
type CellError struct {
	Config, Workload int
	Err              error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("exp: sweep cell (config %d, workload %d): %v", e.Config, e.Workload, e.Err)
}

// NewGrid resolves the cross product: every column and every row once.
func NewGrid(cfgs []ConfigRef, workloads []WorkloadRef) *Grid {
	g := &Grid{cfgs: make([]config.Config, len(cfgs))}
	cfgKeys, cfgErrs := make([]config.Config, len(cfgs)), make([]error, len(cfgs))
	for c, ref := range cfgs {
		g.Configs = append(g.Configs, ref.Label())
		if g.cfgs[c], cfgErrs[c] = ref.Resolve(); cfgErrs[c] == nil {
			cfgKeys[c] = g.cfgs[c].Identity()
		}
	}
	specs, specKeys, specErrs := make([]trace.Spec, len(workloads)), make([]trace.Spec, len(workloads)), make([]error, len(workloads))
	for w, ref := range workloads {
		g.Workloads = append(g.Workloads, ref.Label())
		if specs[w], specErrs[w] = ref.Resolve(); specErrs[w] == nil {
			specKeys[w] = specs[w].Identity()
		}
	}
	g.jobs = make([]Job, 0, len(cfgs)*len(workloads))
	for c := range cfgs {
		for w := range workloads {
			if err := cmp.Or(cfgErrs[c], specErrs[w]); err != nil {
				g.jobs, g.err = nil, &CellError{Config: c, Workload: w, Err: err}
				return g
			}
			g.jobs = append(g.jobs, Job{Config: cfgs[c], Workload: workloads[w], res: &resolution{
				cfg: g.cfgs[c], spec: specs[w], key: cellKey{cfg: cfgKeys[c], spec: specKeys[w]}}})
		}
	}
	return g
}

// benchGrid is the grid of the paper's own figures: the baseline in
// column 0, which every other column is normalized to, then cfgs, against
// benchmarks by name.
func benchGrid(benches []string, cfgs ...config.Config) *Grid {
	refs := make([]WorkloadRef, len(benches))
	for i, b := range benches {
		refs[i] = BenchRef(b)
	}
	return NewGrid(SweepConfigs(append([]config.Config{config.Baseline()}, cfgs...)), refs)
}

// Jobs returns the grid's cells, config-major, or — when one does not
// resolve — the first such cell, in that order, as a *CellError.
func (g *Grid) Jobs() ([]Job, error) { return g.jobs, g.err }

// Areas returns each column's area cost over column 0 — one area.Compare
// per column, so Areas()[0] is zero.
func (g *Grid) Areas() []area.Estimate {
	out := make([]area.Estimate, len(g.cfgs))
	for c := range g.cfgs {
		out[c] = area.Compare(&g.cfgs[0], &g.cfgs[c])
	}
	return out
}

// Read assembles the grid's metrics, reading every cell once through
// cell, config-major. Each cell's labels are restamped, so a cell shared
// with a differently-named twin still reports this grid's names.
func (g *Grid) Read(cell func(Job) (core.Metrics, error)) (*SweepResult, error) {
	if g.err != nil {
		return nil, g.err
	}
	res := &SweepResult{Grid: g, Cells: make([][]core.Metrics, len(g.Workloads))}
	for w := range res.Cells {
		res.Cells[w] = make([]core.Metrics, len(g.Configs))
	}
	for i, j := range g.jobs {
		c, w := i/len(g.Workloads), i%len(g.Workloads)
		m, err := cell(j)
		if err != nil {
			return nil, err
		}
		m.Config, m.Benchmark = g.Configs[c], g.Workloads[w]
		res.Cells[w][c] = m
	}
	return res, nil
}

// column reads one configuration's cells through the memo, a counted
// lookup each; a cell nothing prefetched simulates here, serially.
func (s *Scheduler) column(g *Grid, c int) ([]core.Metrics, error) {
	if g.err != nil {
		return nil, g.err
	}
	ms := make([]core.Metrics, len(g.Workloads))
	for w := range ms {
		var err error
		if ms[w], err = s.RunJob(g.jobs[c*len(ms)+w]); err != nil {
			return nil, err
		}
	}
	return ms, nil
}

// relative reads columns [lo, hi) relative to column 0: out[w][c-lo] is
// workload w's speedup on configuration c. Stats.CacheHits is report
// output (the goldens pin it), so how often the base column is read is
// part of a figure: once (Figs. 3 and 11), or, with perColumn, again
// before every column (Table II, Figs. 10 and 12).
func (s *Scheduler) relative(g *Grid, lo, hi int, perColumn bool) ([][]float64, error) {
	out := make([][]float64, len(g.Workloads))
	var base []core.Metrics
	for c := lo; c < hi; c++ {
		var err error
		if base == nil || perColumn {
			if base, err = s.column(g, 0); err != nil {
				return nil, err
			}
		}
		col, err := s.column(g, c)
		if err != nil {
			return nil, err
		}
		for w, m := range col {
			out[w] = append(out[w], m.Speedup(base[w]))
		}
	}
	return out, nil
}

// SweepResult is a grid read: Cells[w][c] holds the metrics of
// Workloads[w] on Configs[c].
type SweepResult struct {
	*Grid
	Cells [][]core.Metrics `json:"cells"`
}

// Speedups returns, for each workload row, the wall-clock speedup of
// every configuration column relative to the baseline column (index
// baseCol).
func (r *SweepResult) Speedups(baseCol int) [][]float64 {
	out := make([][]float64, len(r.Cells))
	for w, row := range r.Cells {
		out[w] = make([]float64, len(row))
		for c := range row {
			out[w][c] = row[c].Speedup(row[baseCol])
		}
	}
	return out
}

// Sweep runs the configurations × workloads cross product on the worker
// pool and assembles the full metrics grid. Both axes mix preset names
// and inline values freely: configurations are ConfigRefs (preset names,
// inline configs or mitigation-knob patches) and workloads are
// WorkloadRefs (benchmark names or inline specs), so a sweep can cover
// hardware axes (MSHR entries, miss-queue depth, L2 banking, DRAM
// scaling, ...) exactly like workload axes. Cells that collapse to the
// same identity — within the sweep or against the memo cache — simulate
// once; every cell is resolved before any simulation starts.
func (s *Scheduler) Sweep(cfgs []ConfigRef, workloads []WorkloadRef) (*SweepResult, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one configuration")
	}
	if len(workloads) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one workload")
	}
	g := NewGrid(cfgs, workloads)
	if g.err != nil {
		return nil, g.err
	}
	if err := s.RunJobs(g.jobs); err != nil {
		return nil, err
	}
	// Assembly is serial and hits only the memo cache, so the grid is
	// deterministic for any worker count.
	return g.Read(s.RunJob)
}

// SweepConfigs wraps plain config values as inline refs — the
// convenience for callers sweeping concrete config.Config values.
func SweepConfigs(cfgs []config.Config) []ConfigRef {
	refs := make([]ConfigRef, len(cfgs))
	for i, cfg := range cfgs {
		refs[i] = InlineConfig(cfg)
	}
	return refs
}

package exp

import (
	"fmt"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
)

// grid is a configurations × workloads cross product: the one statement
// of which cells a report section, a figure or a sweep is made of. Every
// cell is resolved exactly once, at construction, so prefetching (jobs)
// and assembly (Scheduler.column) name the same cells by construction —
// an assembler cannot read a cell its grid did not schedule.
type grid struct {
	configs, workloads []string // axis labels
	jobs               []Job    // resolved, config-major: every workload of configs[0], then of configs[1], ...
	// err is the first cell, in workload-major order, that did not
	// resolve. Such a grid schedules nothing and every read returns err.
	err error
}

// newGrid resolves the cross product.
func newGrid(cfgs []ConfigRef, workloads []WorkloadRef) *grid {
	g := &grid{jobs: make([]Job, len(cfgs)*len(workloads))}
	for _, cref := range cfgs {
		g.configs = append(g.configs, cref.Label())
	}
	for w, wref := range workloads {
		g.workloads = append(g.workloads, wref.Label())
		for c, cref := range cfgs {
			j, err := Job{Config: cref, Workload: wref}.Resolve()
			if err != nil && g.err == nil {
				g.err = fmt.Errorf("exp: sweep cell (config %d, workload %d): %w", c, w, err)
			}
			g.jobs[c*len(workloads)+w] = j
		}
	}
	if g.err != nil {
		g.jobs = nil
	}
	return g
}

// benchGrid is the grid of the paper's own figures: the baseline in
// column 0, which every other column is normalized to, then cfgs, against
// benchmarks by name.
func benchGrid(benches []string, cfgs ...config.Config) *grid {
	refs := make([]WorkloadRef, len(benches))
	for i, b := range benches {
		refs[i] = BenchRef(b)
	}
	return newGrid(SweepConfigs(append([]config.Config{config.Baseline()}, cfgs...)), refs)
}

// column reads one configuration's cells through the memo, a counted
// lookup each; a cell nothing prefetched simulates here, serially.
func (s *Scheduler) column(g *grid, c int) ([]core.Metrics, error) {
	if g.err != nil {
		return nil, g.err
	}
	ms := make([]core.Metrics, len(g.workloads))
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
func (s *Scheduler) relative(g *grid, lo, hi int, perColumn bool) ([][]float64, error) {
	out := make([][]float64, len(g.workloads))
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

// SweepResult is the metrics grid of Scheduler.Sweep: Cells[w][c] holds
// the metrics of Workloads[w] on Configs[c].
type SweepResult struct {
	Configs   []string         `json:"configs"`
	Workloads []string         `json:"workloads"`
	Cells     [][]core.Metrics `json:"cells"`
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
	g := newGrid(cfgs, workloads)
	if g.err != nil {
		return nil, g.err
	}
	if err := s.RunJobs(g.jobs); err != nil {
		return nil, err
	}
	// Assembly is serial and hits only the memo cache, so the grid is
	// deterministic for any worker count. Each cell's labels are restamped
	// so a cell shared with a differently-named twin still reports this
	// sweep's names.
	res := &SweepResult{Configs: g.configs, Workloads: g.workloads, Cells: make([][]core.Metrics, len(workloads))}
	for w := range res.Cells {
		res.Cells[w] = make([]core.Metrics, len(cfgs))
	}
	for c := range cfgs {
		col, err := s.column(g, c)
		if err != nil {
			return nil, err
		}
		for w, m := range col {
			m.Config, m.Benchmark = g.configs[c], g.workloads[w]
			res.Cells[w][c] = m
		}
	}
	return res, nil
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

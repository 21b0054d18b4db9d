package exp

import (
	"fmt"

	"gpumembw/internal/config"
	"gpumembw/internal/core"
)

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
	res := &SweepResult{
		Configs:   make([]string, len(cfgs)),
		Workloads: make([]string, len(workloads)),
		Cells:     make([][]core.Metrics, len(workloads)),
	}
	jobs := make([]Job, 0, len(workloads)*len(cfgs))
	for w, ref := range workloads {
		res.Workloads[w] = ref.Label()
		for c, cref := range cfgs {
			j, err := Job{Config: cref, Workload: ref}.Resolve()
			if err != nil {
				return nil, fmt.Errorf("exp: sweep cell (config %d, workload %d): %w", c, w, err)
			}
			jobs = append(jobs, j)
		}
	}
	for c, cref := range cfgs {
		res.Configs[c] = cref.Label()
	}
	if err := s.RunJobs(jobs); err != nil {
		return nil, err
	}
	// Assembly is serial and hits only the memo cache, so the grid is
	// deterministic for any worker count. Each job's labels are restamped
	// so a cell shared with a differently-named twin still reports this
	// sweep's names.
	for w := range workloads {
		res.Cells[w] = make([]core.Metrics, len(cfgs))
		for c := range cfgs {
			m, err := s.RunJob(jobs[w*len(cfgs)+c])
			if err != nil {
				return nil, err
			}
			m.Config = res.Configs[c]
			m.Benchmark = res.Workloads[w]
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

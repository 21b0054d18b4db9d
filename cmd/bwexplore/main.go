// Command bwexplore runs custom design-space explorations over BOTH axes
// of the simulator's design space: the architecture axis — whole memory
// levels scaled by one or more factors (-levels/-factor), crossed with
// named knobs swept directly (-knob path=v1,v2,…, any path `gpusim -set`
// takes, such as the paper's Table III mitigation knobs) — and optionally
// the workload axis — coalescing degree, thread-level parallelism,
// working-set size as spec variants derived from a named benchmark. Every
// (config, workload) cell runs once on the experiment engine's worker
// pool through the shared sweep API; the report shows per-workload
// speedups over the baseline for every configuration column plus the
// estimated area cost.
//
// Usage:
//
//	bwexplore -levels l2 -factor 4
//	bwexplore -levels l1,l2 -factor 2 -bench mm,sc,lbm -j 8
//	bwexplore -knob l1.mshr_entries=64,128 -knob l1.miss_queue_entries=32 -bench mm,sc
//	bwexplore -knob l2.num_banks=24,48 -levels dram -factor 2,4 -base mm -coalesce 1,8
//	bwexplore -levels l2 -factor 4 -base mm -coalesce 1,4,8 -tlp 6,24,48
//	bwexplore -levels dram -factor 4 -base nn -ws 64,512,4096
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gpumembw"
	"gpumembw/cmd/internal/cliutil"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/prof"
)

func main() {
	levels := flag.String("levels", "", "comma-separated levels to scale together: l1,l2,dram")
	factors := flag.String("factor", "4", "comma-separated scaling factors for -levels, one column each")
	var knobs cliutil.StringList
	flag.Var(&knobs, "knob", "knob axis path=v1,v2,..., crossed with the other axes (repeatable)")
	benches := flag.String("bench", "", "comma-separated benchmarks (default: all 19)")
	base := flag.String("base", "", "benchmark whose spec seeds workload-axis variants")
	coalesce := flag.String("coalesce", "", "comma-separated lines-per-access values to sweep (needs -base)")
	tlp := flag.String("tlp", "", "comma-separated warps-per-core values to sweep (needs -base)")
	ws := flag.String("ws", "", "comma-separated working-set sizes in KB to sweep (needs -base)")
	workers := flag.Int("j", 0, "simulation workers (default GOMAXPROCS)")
	profiles := prof.AddFlags()
	flag.Parse()
	if *levels == "" && len(knobs) == 0 {
		fmt.Fprintln(os.Stderr, "bwexplore: give -levels, -knob or both")
		flag.Usage()
		os.Exit(2)
	}

	if err := exp.ValidateWorkers(*workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer profiles.Stop()
	defer profiles.ExitOnSignal(nil)()

	cols, err := configColumns(*levels, *factors, knobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiles.Exit(2)
	}
	cols = append([]config.Config{gpumembw.Baseline()}, cols...)

	refs, err := workloadAxis(*base, *benches, *coalesce, *tlp, *ws)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiles.Exit(2)
	}

	// One sweep call covers the whole grid: every configuration column ×
	// every workload, deduplicated and simulated concurrently on the pool.
	s := exp.NewScheduler(exp.WithWorkers(*workers), exp.WithProgress(os.Stderr))
	res, err := s.Sweep(exp.SweepConfigs(cols), refs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiles.Exit(1)
	}

	// One row per workload, then cost rows aligned under the speedup
	// columns: each configuration's speedup and area against the baseline
	// column, so every speedup reads next to what it costs.
	speedups, areas := res.Speedups(0), res.Areas()
	row := func(label string, cell func(c int) string) {
		fmt.Printf("%-24s", label)
		for c := 1; c < len(res.Configs); c++ {
			fmt.Print(cell(c))
		}
		fmt.Println()
	}
	row("workload", func(c int) string { return fmt.Sprintf(" %14s", res.Configs[c]) })
	sums := make([]float64, len(res.Configs))
	for w, name := range res.Workloads {
		row(name, func(c int) string { sums[c] += speedups[w][c]; return fmt.Sprintf(" %13.2fx", speedups[w][c]) })
	}
	row("AVG", func(c int) string { return fmt.Sprintf(" %13.2fx", sums[c]/float64(len(res.Workloads))) })
	row("area mm2", func(c int) string { return fmt.Sprintf(" %14.2f", areas[c].TotalMM2) })
	row("overhead", func(c int) string { return fmt.Sprintf(" %13.2f%%", 100*areas[c].OverheadFrac) })
	for c, est := range areas[1:] {
		fmt.Printf("\narea %s: +%.1f KB storage, +%.2f mm2 crossbar wires, %.2f mm2 total (%.2f%% of die)\n",
			res.Configs[c+1], est.StorageKB, est.CrossbarMM2, est.TotalMM2, 100*est.OverheadFrac)
	}
}

// configColumns builds the configuration columns as one cross product:
// each level point (the baseline with -levels scaled by one -factor, or the
// plain baseline without -levels), then each -knob point applied on top of
// it, in flag order. A column is named by its level part and its knob
// assignments, joined by "/": "dram-2x/l2.num_banks=24".
func configColumns(levels, factors string, knobs []string) ([]config.Config, error) {
	points, err := cliutil.KnobPoints(knobs)
	if err != nil {
		return nil, fmt.Errorf("bwexplore: %w", err)
	}
	bases := []config.Config{gpumembw.Baseline()}
	if levels != "" {
		bases = bases[:0]
		for _, f := range cliutil.SplitCSV(factors) {
			factor, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bwexplore: -factor: %w", err)
			}
			cfg := gpumembw.Baseline()
			cfg.Name = fmt.Sprintf("%s-%dx", levels, factor)
			for _, level := range strings.Split(levels, ",") {
				if err := config.Scale(&cfg, config.Level(strings.TrimSpace(level)), factor); err != nil {
					return nil, err
				}
			}
			bases = append(bases, cfg)
		}
		if len(bases) == 0 {
			return nil, fmt.Errorf("bwexplore: -levels needs at least one -factor")
		}
	}
	var cols []config.Config
	for _, b := range bases {
		for _, sets := range points {
			cfg := b
			if err := cfg.Set(sets...); err != nil {
				return nil, err
			}
			if levels != "" {
				sets = append([]string{b.Name}, sets...)
			}
			cfg.Name = strings.Join(sets, "/")
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			cols = append(cols, cfg)
		}
	}
	return cols, nil
}

// workloadAxis expands the workload side of the grid. With -base set, it
// derives inline spec variants from the named benchmark's registered
// spec, crossing every provided axis (coalescing × TLP × working set);
// otherwise it returns the selected (default: all 19) benchmarks.
func workloadAxis(base, benches, coalesce, tlp, ws string) ([]exp.WorkloadRef, error) {
	axesGiven := coalesce != "" || tlp != "" || ws != ""
	if base != "" && benches != "" {
		return nil, fmt.Errorf("bwexplore: -base and -bench are mutually exclusive")
	}
	if base == "" {
		if axesGiven {
			return nil, fmt.Errorf("bwexplore: -coalesce/-tlp/-ws need -base")
		}
		names := gpumembw.BenchmarkNames()
		if benches != "" {
			names = cliutil.SplitCSV(benches)
		}
		refs := make([]exp.WorkloadRef, len(names))
		for i, b := range names {
			refs[i] = exp.BenchRef(b)
		}
		return refs, nil
	}
	if !axesGiven {
		return nil, fmt.Errorf("bwexplore: -base needs at least one of -coalesce, -tlp, -ws")
	}
	spec, err := gpumembw.SpecByName(base)
	if err != nil {
		return nil, err
	}
	coalesceVals, err := axisValues(coalesce, "coalesce", spec.LinesPerAccess)
	if err != nil {
		return nil, err
	}
	tlpVals, err := axisValues(tlp, "tlp", spec.WarpsPerCore)
	if err != nil {
		return nil, err
	}
	wsVals, err := axisValues(ws, "ws", spec.WorkingSetKB)
	if err != nil {
		return nil, err
	}
	var refs []exp.WorkloadRef
	for _, c := range coalesceVals {
		for _, t := range tlpVals {
			for _, w := range wsVals {
				v := spec
				v.Name = variantName(base, coalesce != "", c, tlp != "", t, ws != "", w)
				v.LinesPerAccess = c
				v.WarpsPerCore = t
				v.WorkingSetKB = w
				if err := v.Validate(); err != nil {
					return nil, err
				}
				refs = append(refs, exp.SpecRef(v))
			}
		}
	}
	return refs, nil
}

// axisValues parses one comma-separated workload axis; an empty axis
// pins the base spec's own value.
func axisValues(s, name string, baseVal int) ([]int, error) {
	if s == "" {
		return []int{baseVal}, nil
	}
	var vals []int
	for _, p := range cliutil.SplitCSV(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bwexplore: -%s: %w", name, err)
		}
		vals = append(vals, v)
	}
	return vals, nil
}

// variantName labels a spec variant with only the axes actually swept,
// e.g. "mm/c4/t24".
func variantName(base string, hasC bool, c int, hasT bool, t int, hasW bool, w int) string {
	name := base
	if hasC {
		name += fmt.Sprintf("/c%d", c)
	}
	if hasT {
		name += fmt.Sprintf("/t%d", t)
	}
	if hasW {
		name += fmt.Sprintf("/ws%d", w)
	}
	return name
}

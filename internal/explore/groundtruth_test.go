package explore

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"testing"

	"gpumembw/internal/api"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
)

// The ground truth is a Table III sub-lattice small enough to simulate
// exhaustively: 243 points, written banks·req·reply·missq·respq, on the
// baseline 12·32·32·8·8 (so the 16 B request flit is a rung below the
// base), × the workloads mm, lavaMD and lbm. testdata/groundtruth.json
// holds each of the 729 cells' PerfIPS, the one field Metrics.Speedup
// reads, keyed by CellID. Regenerate it after a SimVersion bump with
//
//	go test ./internal/explore -run GroundTruth -groundtruth.regen -timeout 30m
//
// (about 5 min on 2 CPUs).
var regenGroundTruth = flag.Bool("groundtruth.regen", false,
	"re-simulate testdata/groundtruth.json before checking it")

const groundTruthFile = "testdata/groundtruth.json"

var groundTruthBenches = []string{"mm", "lavaMD", "lbm"}

func groundTruthKnobs() []api.ExploreKnob {
	return []api.ExploreKnob{
		{Path: "l2.num_banks", Values: []string{"12", "24", "48"}},
		{Path: "icnt.req_flit_bytes", Values: []string{"16", "32", "64"}},
		{Path: "icnt.reply_flit_bytes", Values: []string{"32", "48", "64"}},
		{Path: "l2.miss_queue_entries", Values: []string{"8", "16", "32"}},
		{Path: "l2.response_queue_entries", Values: []string{"8", "16", "32"}},
	}
}

type groundTruth struct {
	SimVersion string            `json:"simVersion"`
	Cells      map[string]gtCell `json:"cells"`
}

type gtCell struct{ PerfIPS float64 }

// metrics answers one cell from the table; a cell outside it is an error.
func (gt groundTruth) metrics(j exp.Job) (core.Metrics, error) {
	c, ok := gt.Cells[j.CellID()]
	if !ok {
		return core.Metrics{}, fmt.Errorf("cell %s (%s × %s) is outside the ground-truth table", j.CellID(), j.Config.Label(), j.Workload.Label())
	}
	return core.Metrics{PerfIPS: c.PerfIPS}, nil
}

// latticeGrid enumerates every valid point of p's lattice, the base first,
// and returns them with their grid over p's workloads.
func latticeGrid(t *testing.T, p *Plan) ([]Candidate, *exp.Grid) {
	t.Helper()
	sp := p.Space
	var points []Candidate
	levels := make([]int, len(sp.Knobs))
	for {
		if c := (Candidate{slices.Clone(levels)}); sp.Valid(c) {
			points = append(points, c)
		}
		i := 0
		for ; i < len(levels); i++ {
			if levels[i]++; levels[i] < len(sp.Knobs[i].Values) {
				break
			}
			levels[i] = 0
		}
		if i == len(levels) {
			break
		}
	}
	base := sp.Baseline().Key()
	b := slices.IndexFunc(points, func(c Candidate) bool { return c.Key() == base })
	points[0], points[b] = points[b], points[0]
	crefs := make([]exp.ConfigRef, len(points))
	for i, c := range points {
		var err error
		if crefs[i], err = configRef(sp, c); err != nil {
			t.Fatal(err)
		}
	}
	return points, exp.NewGrid(crefs, p.Workloads)
}

// groundTruthJobs returns the table's 729 cells as jobs.
func groundTruthJobs(t *testing.T) []exp.Job {
	t.Helper()
	p, err := Compile(api.ExploreRequest{
		Benchmarks: groundTruthBenches,
		Objective:  api.ExploreObjective{TargetSpeedup: 1.05},
		Knobs:      groundTruthKnobs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	_, g := latticeGrid(t, p)
	jobs, err := g.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func loadGroundTruth(t *testing.T) groundTruth {
	t.Helper()
	b, err := os.ReadFile(groundTruthFile)
	if err != nil {
		t.Fatal(err)
	}
	var gt groundTruth
	if err := json.Unmarshal(b, &gt); err != nil {
		t.Fatal(err)
	}
	return gt
}

// The table must describe the simulator that runs today: a SimVersion bump
// changes metrics, so it must regenerate the table in the same change.
// With -groundtruth.regen this test re-simulates the table first.
func TestGroundTruthMatchesSimVersion(t *testing.T) {
	jobs := groundTruthJobs(t)
	if *regenGroundTruth {
		s := exp.NewScheduler(exp.WithWorkers(runtime.GOMAXPROCS(0)))
		outs, err := exp.RunAll(context.Background(), s.Workers(), jobs, func(ctx context.Context, j exp.Job) (exp.RunResult, error) {
			return s.RunJobEx(ctx, j, false)
		})
		if err != nil {
			t.Fatal(err)
		}
		gt := groundTruth{SimVersion: core.SimVersion, Cells: map[string]gtCell{}}
		for i, j := range jobs {
			gt.Cells[j.CellID()] = gtCell{outs[i].Metrics.PerfIPS}
		}
		b, err := json.MarshalIndent(gt, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(groundTruthFile, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gt := loadGroundTruth(t)
	if gt.SimVersion != core.SimVersion {
		t.Fatalf("%s was simulated at %s, the simulator is %s: regenerate it with -groundtruth.regen",
			groundTruthFile, gt.SimVersion, core.SimVersion)
	}
	if len(jobs) != 729 || len(gt.Cells) != len(jobs) {
		t.Fatalf("lattice has %d cells, table %d; want 729 each", len(jobs), len(gt.Cells))
	}
	for _, j := range jobs {
		if _, err := gt.metrics(j); err != nil {
			t.Fatal(err)
		}
	}
}

// tableEval answers probes from the ground-truth table; a probe outside
// it fails the exploration.
func tableEval(gt groundTruth) EvalBatch {
	return func(_ context.Context, jobs []exp.Job) ([]exp.RunResult, error) {
		outs := make([]exp.RunResult, len(jobs))
		for i, j := range jobs {
			m, err := gt.metrics(j)
			if err != nil {
				return nil, err
			}
			outs[i] = exp.RunResult{Metrics: m, Tier: exp.TierMemo}
		}
		return outs, nil
	}
}

// groundTruthOptimum scores every lattice point from the table and returns
// the exhaustive answer: Recommend over the Frontier of all of them.
func groundTruthOptimum(t *testing.T, p *Plan, gt groundTruth) Scored {
	t.Helper()
	points, g := latticeGrid(t, p)
	sw, err := g.Read(gt.metrics)
	if err != nil {
		t.Fatal(err)
	}
	speedups, areas := sw.Speedups(0)[0], sw.Areas()
	all := make([]Scored, len(points))
	for i, c := range points {
		all[i] = Scored{Cand: c, Score: Score{Speedup: speedups[i], AreaMM2: areas[i].TotalMM2}}
	}
	opt, _ := p.Objective.Recommend(Frontier(all))
	return opt
}

// The search's quality, pinned: the twelve cases of EXPERIMENTS.md's
// ground-truth table (three workloads × targets 1.05× and 1.2× × budgets
// 4 and 11 mm²), each searched against the committed table in
// milliseconds. A hit is the exhaustive optimum itself. A change to
// candidate generation that loses a hit, or changes a case's probe count,
// fails here.
func TestSearchAgainstGroundTruth(t *testing.T) {
	gt := loadGroundTruth(t)
	t1 := func(x float64) api.ExploreObjective { return api.ExploreObjective{TargetSpeedup: x} }
	b := func(x float64) api.ExploreObjective { return api.ExploreObjective{AreaBudgetMM2: x} }
	label := func(o api.ExploreObjective) string {
		if o.TargetSpeedup > 0 {
			return fmt.Sprintf("@%g×", o.TargetSpeedup)
		}
		return fmt.Sprintf("@%g mm²", o.AreaBudgetMM2)
	}
	cases := []struct {
		bench  string
		obj    api.ExploreObjective
		hit    bool
		probes int
	}{ // 10 hits of 12, 472 probes
		{"mm", t1(1.05), true, 35},
		{"mm", t1(1.2), true, 34},
		{"mm", b(4), true, 52},
		{"mm", b(11), false, 38},
		{"lavaMD", t1(1.05), true, 31},
		{"lavaMD", t1(1.2), true, 39},
		{"lavaMD", b(4), true, 35},
		{"lavaMD", b(11), false, 41},
		{"lbm", t1(1.05), true, 35},
		{"lbm", t1(1.2), true, 46},
		{"lbm", b(4), true, 40},
		{"lbm", b(11), true, 46},
	}
	hits, probes := 0, 0
	for _, tc := range cases {
		p, err := Compile(api.ExploreRequest{Benchmarks: []string{tc.bench}, Objective: tc.obj, Knobs: groundTruthKnobs()})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), p, tableEval(gt), nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := groundTruthOptimum(t, p, gt)
		hit := slices.Equal(res.Recommended.Sets, p.Space.Sets(opt.Cand))
		if hit {
			hits++
		}
		probes += res.Probes
		t.Logf("%s %s: %d probes, hit=%v; recommended %v %.4f× / %.2f mm², optimum %v %.4f× / %.2f mm²",
			tc.bench, label(tc.obj), res.Probes, hit, res.Recommended.Sets, res.Recommended.Speedup, res.Recommended.AreaMM2,
			p.Space.Sets(opt.Cand), opt.Score.Speedup, opt.Score.AreaMM2)
		if hit != tc.hit || res.Probes != tc.probes {
			t.Errorf("%s %s: hit=%v after %d probes, want hit=%v after %d", tc.bench, label(tc.obj), hit, res.Probes, tc.hit, tc.probes)
		}
	}
	t.Logf("%d hits of %d, %d probes", hits, len(cases), probes)
}

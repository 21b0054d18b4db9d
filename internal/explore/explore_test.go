package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

// floodSpec is a small memory-flooding workload whose bandwidth
// bottlenecks respond to the Table III mitigations (all-4x ≈ 1.14×), so
// searches over the real lattice have a real signal — while one probe
// simulates in tens of milliseconds.
func floodSpec() trace.Spec {
	return trace.Spec{
		Name: "miniflood", Iters: 5,
		LoadsPerIter: 8, ALUPerIter: 1,
		DepDist: 0, Pattern: trace.PatRandomWS, WorkingSetKB: 1024,
		WarpsPerCore: 10, Seed: 9,
	}
}

// tinyKnobs is a 12-point custom lattice for fast service-style tests.
func tinyKnobs() []api.ExploreKnob {
	return []api.ExploreKnob{
		{Path: "l2.miss_queue_entries", Values: []string{"8", "16", "32"}},
		{Path: "l1.mshr_entries", Values: []string{"32", "64"}},
		{Path: "dram.sched_queue_entries", Values: []string{"16", "64"}},
	}
}

func tinyRequest() api.ExploreRequest {
	return api.ExploreRequest{
		InlineSpecs: []trace.Spec{floodSpec()},
		Objective:   api.ExploreObjective{TargetSpeedup: 1.05},
		Knobs:       tinyKnobs(),
	}
}

func TestCompileCanonicalizesSpellings(t *testing.T) {
	a, err := Compile(tinyRequest())
	if err != nil {
		t.Fatal(err)
	}
	// Same semantics, different spelling: defaults written out, knob
	// values unordered, fuzzy path case.
	req := tinyRequest()
	req.Base = "baseline"
	req.Strategy = "halving"
	req.MaxRounds = 8
	req.Objective.Minimize = "area"
	req.Knobs = []api.ExploreKnob{
		{Path: "L2.MissQueueEntries", Values: []string{"32", "8", "16"}},
		{Path: "l1.mshrentries", Values: []string{"64", "32"}},
		{Path: "dram.sched-queue-entries", Values: []string{"64", "16"}},
	}
	b, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Errorf("equivalent requests got different IDs: %s vs %s", a.ID(), b.ID())
	}
	// A different objective is a different exploration.
	req.Objective.TargetSpeedup = 1.2
	c, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	if c.ID() == a.ID() {
		t.Error("different targets share an ID")
	}
}

func TestCompileRejectsHostileRequests(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*api.ExploreRequest)
	}{
		{"no workloads", func(r *api.ExploreRequest) { r.InlineSpecs = nil; r.Benchmarks = nil }},
		{"unknown bench", func(r *api.ExploreRequest) { r.Benchmarks = []string{"nope"} }},
		{"both objectives", func(r *api.ExploreRequest) { r.Objective.AreaBudgetMM2 = 5 }},
		{"no objective", func(r *api.ExploreRequest) { r.Objective = api.ExploreObjective{} }},
		{"target below 1", func(r *api.ExploreRequest) { r.Objective.TargetSpeedup = 0.5 }},
		{"minimize speedup", func(r *api.ExploreRequest) { r.Objective.Minimize = "speedup" }},
		{"unknown strategy", func(r *api.ExploreRequest) { r.Strategy = "simulated-annealing" }},
		{"unknown knob", func(r *api.ExploreRequest) { r.Knobs[0].Path = "l2.warp_drive" }},
		{"non-numeric knob", func(r *api.ExploreRequest) { r.Knobs[0] = api.ExploreKnob{Path: "name", Values: []string{"x"}} }},
		{"non-integer value", func(r *api.ExploreRequest) { r.Knobs[0].Values = []string{"8.5"} }},
		{"out of bounds", func(r *api.ExploreRequest) { r.Knobs[0].Values = []string{"99999999"} }},
		{"negative queue rung", func(r *api.ExploreRequest) { r.Knobs[0].Values = []string{"-4", "8"} }},
		{"zero clock rung", func(r *api.ExploreRequest) {
			r.Knobs[0] = api.ExploreKnob{Path: "icnt.clock_mhz", Values: []string{"0", "700"}}
		}},
		{"duplicate knob", func(r *api.ExploreRequest) { r.Knobs = append(r.Knobs, r.Knobs[0]) }},
		{"unknown base", func(r *api.ExploreRequest) { r.Base = "gtx9000" }},
		{"maxRounds over cap", func(r *api.ExploreRequest) { r.MaxRounds = 1000 }},
	}
	for _, tc := range cases {
		req := tinyRequest()
		tc.mut(&req)
		if _, err := Compile(req); err == nil {
			t.Errorf("%s: compile accepted the request", tc.name)
		}
	}
}

func TestDefaultLatticeIsTableIII(t *testing.T) {
	p, err := Compile(api.ExploreRequest{
		InlineSpecs: []trace.Spec{floodSpec()},
		Objective:   api.ExploreObjective{TargetSpeedup: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	knobs := 0
	for _, row := range config.TableIII {
		knobs += len(row.Knobs)
	}
	if got := len(p.Space.Knobs); got != knobs {
		t.Fatalf("default lattice has %d axes, want %d", got, knobs)
	}
	// 11 axes of 3 rungs (×1, ×2, ×4) and 3 of 4 rungs (the
	// cost-effective intermediates): 3^11 × 4^3 lattice points.
	if got := p.Space.GridSize(); got != 11337408 {
		t.Errorf("GridSize = %d, want 11337408", got)
	}
	for i := 1; i < len(p.Space.Knobs); i++ {
		if p.Space.Knobs[i-1].Path >= p.Space.Knobs[i].Path {
			t.Errorf("axes not sorted: %s before %s", p.Space.Knobs[i-1].Path, p.Space.Knobs[i].Path)
		}
	}
}

func TestObjectiveOrderAndRecommend(t *testing.T) {
	mk := func(sp, area float64) Scored {
		return Scored{Cand: Candidate{levels: []int{int(area * 10)}}, Score: Score{Speedup: sp, AreaMM2: area}}
	}
	obj := Objective{TargetSpeedup: 1.2}
	feasCheap := mk(1.25, 2)
	feasDear := mk(1.4, 8)
	infeasFast := mk(1.1, 1)
	if !obj.Better(feasCheap, feasDear) {
		t.Error("minimize-area should prefer the cheaper feasible point")
	}
	if !obj.Better(feasDear, infeasFast) {
		t.Error("feasible should beat infeasible")
	}
	if !obj.Better(infeasFast, mk(1.05, 0.5)) {
		t.Error("among infeasible, higher speedup should win")
	}

	front := Frontier([]Scored{mk(1, 0), feasCheap, feasDear, infeasFast, mk(1.2, 9)})
	// mk(1.2, 9) is dominated by feasDear (faster, cheaper); infeasFast
	// dominates nothing but sits on the frontier (cheapest non-base).
	if len(front) != 4 {
		t.Fatalf("frontier size = %d, want 4", len(front))
	}
	rec, ok := obj.Recommend(front)
	if !ok || rec.Score.AreaMM2 != 2 {
		t.Errorf("recommend = %+v feasible=%v, want the 2 mm² point", rec.Score, ok)
	}

	budget := Objective{AreaBudgetMM2: 3}
	rec, ok = budget.Recommend(front)
	if !ok || rec.Score.Speedup != 1.25 {
		t.Errorf("budget recommend = %+v feasible=%v, want the 1.25× point", rec.Score, ok)
	}

	// Unreachable target: closest (fastest) point, flagged infeasible.
	impossible := Objective{TargetSpeedup: 9}
	rec, ok = impossible.Recommend(front)
	if ok || rec.Score.Speedup != 1.4 {
		t.Errorf("impossible target: rec=%+v feasible=%v", rec.Score, ok)
	}
}

// runPlan compiles and runs a request on a fresh scheduler.
func runPlan(t *testing.T, req api.ExploreRequest, workers int) (*Plan, *Result, *exp.Scheduler) {
	t.Helper()
	p, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	s := exp.NewScheduler(exp.WithWorkers(workers))
	res, err := Run(context.Background(), p, SchedulerEval(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	return p, res, s
}

// stripTiers zeroes the run-attribution fields, leaving only the
// deterministic core of a result.
func stripTiers(res *Result) *Result {
	c := *res
	c.Tiers = api.ExploreTiers{}
	return &c
}

// The same request must explore identically — same probe set, rounds,
// frontier and recommendation — at any worker count, and a rerun over a
// warm scheduler must simulate nothing.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	req := tinyRequest()
	p1, res1, s1 := runPlan(t, req, 1)
	p8, res8, _ := runPlan(t, req, 8)
	if p1.ID() != p8.ID() {
		t.Fatalf("IDs differ: %s vs %s", p1.ID(), p8.ID())
	}
	j1, _ := json.Marshal(stripTiers(res1))
	j8, _ := json.Marshal(stripTiers(res8))
	if string(j1) != string(j8) {
		t.Errorf("results differ across worker counts:\n-j1: %s\n-j8: %s", j1, j8)
	}
	if res1.ProbesDigest != res8.ProbesDigest {
		t.Errorf("probe sets differ: %s vs %s", res1.ProbesDigest, res8.ProbesDigest)
	}
	if res1.Tiers.Simulated == 0 {
		t.Error("first run simulated nothing?")
	}

	// Rerun on the warm scheduler: everything replays from memo.
	rerun, err := Run(context.Background(), p1, SchedulerEval(s1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rerun.Tiers.Simulated != 0 {
		t.Errorf("rerun simulated %d cells, want 0", rerun.Tiers.Simulated)
	}
	jr, _ := json.Marshal(stripTiers(rerun))
	if string(jr) != string(j1) {
		t.Errorf("rerun result differs:\n%s\nvs\n%s", jr, j1)
	}
}

// Under an area budget the search must stay within it and still improve
// on the baseline for a memory-bound workload.
func TestSearchFindsImprovementUnderBudget(t *testing.T) {
	req := tinyRequest()
	req.Objective = api.ExploreObjective{AreaBudgetMM2: 2}
	_, res, _ := runPlan(t, req, 4)
	if res.Recommended == nil {
		t.Fatal("no recommendation")
	}
	if !res.Feasible {
		t.Error("area budget with baseline probed can never be infeasible")
	}
	if res.Recommended.AreaMM2 > 2 {
		t.Errorf("recommended point busts the budget: %+v", res.Recommended)
	}
	if res.Recommended.Speedup <= 1 {
		t.Errorf("search found nothing better than baseline: %+v", res.Recommended)
	}
}

// On a lattice small enough to enumerate, the search must recommend the
// exhaustive optimum under every objective. The 16 B request flit sits
// below the baseline's 32 B, so the cheap answers need the cost-shedding
// step to go below the base. Each objective's whole resource — rounds,
// probes, tiers (all memo: the enumeration warmed the scheduler), digest,
// frontier and recommendation — must match testdata/search.golden.json
// byte for byte, so any drift in what the search probes, or in what order,
// shows.
func TestSearchFindsExhaustiveOptimum(t *testing.T) {
	req := api.ExploreRequest{
		InlineSpecs: []trace.Spec{floodSpec()},
		Objective:   api.ExploreObjective{TargetSpeedup: 1.02},
		Knobs: []api.ExploreKnob{
			{Path: "icnt.req_flit_bytes", Values: []string{"16", "32"}},
			{Path: "icnt.reply_flit_bytes", Values: []string{"32", "48"}},
			{Path: "l2.num_banks", Values: []string{"12", "24", "48"}},
		},
	}
	p, err := Compile(req)
	if err != nil {
		t.Fatal(err)
	}
	sp := p.Space
	cands := []Candidate{sp.Baseline()}
	for a := range 2 {
		for b := range 2 {
			for c := range 3 {
				if cand := (Candidate{[]int{a, b, c}}); len(sp.Sets(cand)) > 0 {
					cands = append(cands, cand)
				}
			}
		}
	}
	if len(cands) != 12 {
		t.Fatalf("enumerated %d points, want 12", len(cands))
	}
	crefs := make([]exp.ConfigRef, len(cands))
	for i, c := range cands {
		if crefs[i], err = configRef(sp, c); err != nil {
			t.Fatal(err)
		}
	}
	s := exp.NewScheduler(exp.WithWorkers(4))
	sw, err := s.Sweep(crefs, p.Workloads)
	if err != nil {
		t.Fatal(err)
	}
	speedups, areas := sw.Speedups(0)[0], sw.Areas()
	all := make([]Scored, len(cands))
	for i, c := range cands {
		all[i] = Scored{Cand: c, Score: Score{Speedup: speedups[i], AreaMM2: areas[i].TotalMM2}}
	}
	front := Frontier(all)

	var resources []api.Exploration
	for _, o := range []api.ExploreObjective{
		{TargetSpeedup: 1.02}, {TargetSpeedup: 1.05}, {TargetSpeedup: 1.1},
		{AreaBudgetMM2: 1}, {AreaBudgetMM2: 4}, {AreaBudgetMM2: 11},
	} {
		req.Objective = o
		p, err := Compile(req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.Objective.Recommend(front)
		res, err := Run(context.Background(), p, SchedulerEval(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Recommended; got == nil || !slices.Equal(got.Sets, sp.Sets(want.Cand)) {
			t.Errorf("%+v: recommended %+v after %d probes, exhaustive optimum %v (%.4f×, %.2f mm²)",
				o, got, res.Probes, sp.Sets(want.Cand), want.Score.Speedup, want.Score.AreaMM2)
		}
		resources = append(resources, p.Resource(p.ID(), api.ExplorationDone, res.Status, res, ""))
	}
	got, err := json.MarshalIndent(resources, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/search.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), golden) {
		t.Errorf("resources differ from testdata/search.golden.json; got:\n%s", got)
	}
}

// The efficiency criterion on the real Table III lattice: the search
// must reach the speedup target while probing a small fraction of the
// 11.3M-point exhaustive grid (the acceptance bound is 25%; the actual
// ratio is orders of magnitude smaller).
func TestHalvingReachesTargetEfficiently(t *testing.T) {
	if testing.Short() {
		t.Skip("full-lattice search in -short mode")
	}
	req := api.ExploreRequest{
		InlineSpecs: []trace.Spec{floodSpec()},
		Objective:   api.ExploreObjective{TargetSpeedup: 1.10},
	}
	p, res, _ := runPlan(t, req, 8)
	if !res.Feasible {
		t.Fatalf("search did not reach the 1.10× target: recommended %+v", res.Recommended)
	}
	if res.Recommended.Speedup < 1.10 {
		t.Errorf("recommended %.4f× < target", res.Recommended.Speedup)
	}
	grid := p.Space.GridSize()
	if int64(res.Probes)*4 > grid {
		t.Errorf("probed %d of %d grid cells — over the 25%% acceptance bound", res.Probes, grid)
	}
	// The real bar is far lower: well under 1% of the lattice.
	if int64(res.Probes)*100 > grid {
		t.Errorf("probed %d cells; expected well under 1%% of %d", res.Probes, grid)
	}
	t.Logf("probes=%d grid=%d recommended=%+v", res.Probes, grid, res.Recommended)
}

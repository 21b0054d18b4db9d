package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"gpumembw/internal/api"
	"gpumembw/internal/area"
	"gpumembw/internal/config"
	"gpumembw/internal/core"
	"gpumembw/internal/exp"
)

// Compile limits on hostile requests: the lattice and workload axes are
// bounded like every other untrusted input, so a single request can
// never explode the probe set.
const (
	maxWorkloads     = 64
	maxAxes          = 32
	maxValuesPerAxis = 16
	maxMaxRounds     = 64
	defaultRounds    = 8
)

// Plan is a compiled exploration: the canonicalized request plus the
// resolved lattice, objective and workload refs. Two requests
// that compile to the same canonical form share an ID — and therefore a
// resource, a probe set and every underlying simulation cell.
type Plan struct {
	Request   api.ExploreRequest
	Space     *Space
	Objective Objective
	Workloads []exp.WorkloadRef
	MaxRounds int
}

// Compile validates and canonicalizes an exploration request. Errors
// name the offending field — servers surface them as 400s.
func Compile(req api.ExploreRequest) (*Plan, error) {
	base := req.Base
	if base == "" {
		base = "baseline"
	}
	baseCfg, err := config.ByName(base)
	if err != nil {
		return nil, fmt.Errorf("explore: base: %w", err)
	}
	if n := len(req.Benchmarks) + len(req.InlineSpecs); n == 0 {
		return nil, fmt.Errorf("explore: need at least one benchmark or inline spec")
	} else if n > maxWorkloads {
		return nil, fmt.Errorf("explore: at most %d workloads per exploration, got %d", maxWorkloads, n)
	}
	var workloads []exp.WorkloadRef
	for _, b := range req.Benchmarks {
		ref := exp.BenchRef(b)
		if _, err := ref.Resolve(); err != nil {
			return nil, fmt.Errorf("explore: %w", err)
		}
		workloads = append(workloads, ref)
	}
	for i, sp := range req.InlineSpecs {
		ref := exp.SpecRef(sp)
		if _, err := ref.Resolve(); err != nil {
			return nil, fmt.Errorf("explore: inline spec %d: %w", i, err)
		}
		workloads = append(workloads, ref)
	}
	obj, err := ParseObjective(req.Objective.TargetSpeedup, req.Objective.AreaBudgetMM2,
		req.Objective.Minimize, req.Objective.Maximize)
	if err != nil {
		return nil, err
	}
	if req.Strategy != "" && req.Strategy != searchName {
		return nil, fmt.Errorf("explore: unknown strategy %q (known: %s)", req.Strategy, searchName)
	}
	if len(req.Knobs) > maxAxes {
		return nil, fmt.Errorf("explore: at most %d knobs, got %d", maxAxes, len(req.Knobs))
	}
	for _, k := range req.Knobs {
		if len(k.Values) > maxValuesPerAxis {
			return nil, fmt.Errorf("explore: knob %s: at most %d values, got %d", k.Path, maxValuesPerAxis, len(k.Values))
		}
	}
	space, err := NewSpace(base, baseCfg, req.Knobs)
	if err != nil {
		return nil, err
	}
	rounds := req.MaxRounds
	if rounds == 0 {
		rounds = defaultRounds
	}
	if rounds < 1 || rounds > maxMaxRounds {
		return nil, fmt.Errorf("explore: maxRounds must be in [1, %d], got %d", maxMaxRounds, req.MaxRounds)
	}

	// Canonical request: defaults resolved, knob axes in lattice form.
	canon := api.ExploreRequest{
		Benchmarks:  req.Benchmarks,
		InlineSpecs: req.InlineSpecs,
		Base:        base,
		Strategy:    searchName,
		MaxRounds:   rounds,
	}
	if obj.TargetSpeedup > 0 {
		canon.Objective = api.ExploreObjective{TargetSpeedup: obj.TargetSpeedup, Minimize: "area"}
	} else {
		canon.Objective = api.ExploreObjective{AreaBudgetMM2: obj.AreaBudgetMM2, Maximize: "speedup"}
	}
	if len(req.Knobs) > 0 {
		for _, ax := range space.Knobs {
			canon.Knobs = append(canon.Knobs, api.ExploreKnob{Path: ax.Path, Values: ax.Values})
		}
	}
	return &Plan{
		Request:   canon,
		Space:     space,
		Objective: obj,
		Workloads: workloads,
		MaxRounds: rounds,
	}, nil
}

// ID returns the exploration's content address: a hash of the canonical
// request, so the same search from any spelling of the same semantics is
// the same resource.
func (p *Plan) ID() string {
	b, err := json.Marshal(p.Request)
	if err != nil {
		panic("explore: canonical request not marshalable: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return "ex-" + hex.EncodeToString(sum[:8])
}

// EvalBatch evaluates a batch of probe cells (one round's grid of fresh
// candidates × the plan's workloads) and returns results in job order.
// Both implementations are exp.RunAll over a run step: the scheduler here
// (SchedulerEval), gpusimd's at a daemon or a coordinator.
type EvalBatch func(ctx context.Context, jobs []exp.Job) ([]exp.RunResult, error)

// SchedulerEval runs probe batches on an exp.Scheduler's worker count, so
// a round's probes exploit the same parallelism a sweep would.
func SchedulerEval(s *exp.Scheduler) EvalBatch {
	return func(ctx context.Context, jobs []exp.Job) ([]exp.RunResult, error) {
		return exp.RunAll(ctx, s.Workers(), jobs, func(ctx context.Context, j exp.Job) (exp.RunResult, error) {
			return s.RunJobEx(ctx, j, false)
		})
	}
}

// Status is the driver's published progress: completed rounds, distinct
// probes so far, and cache-tier attribution for this run.
type Status struct {
	Rounds []api.ExploreRound
	Probes int
	Tiers  api.ExploreTiers
}

// Result is a finished exploration's outcome.
type Result struct {
	Status
	ProbesDigest string
	Feasible     bool
	Frontier     []api.ExplorePoint
	Recommended  *api.ExplorePoint
}

// Run executes the plan: the search proposes each round's candidates,
// Run builds their grid, evaluates it through eval and scores it, and
// assembles the Pareto frontier and recommendation from the search's
// ledger. onRound (optional) observes progress after every round.
// Everything except tier attribution is deterministic in the plan; a
// rerun probes the identical candidate set in the identical order and
// lands on byte-identical rounds, frontier and recommendation.
func Run(ctx context.Context, p *Plan, eval EvalBatch, onRound func(Status)) (*Result, error) {
	sp := p.Space
	baseKey := sp.Baseline().Key()
	baseMetrics := make([]core.Metrics, len(p.Workloads))
	probe := func(cands []Candidate, tiers *api.ExploreTiers) ([]Scored, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		crefs := make([]exp.ConfigRef, len(cands))
		for i, c := range cands {
			var err error
			if crefs[i], err = configRef(sp, c); err != nil {
				return nil, err
			}
		}
		jobs, err := exp.NewGrid(crefs, p.Workloads).Jobs()
		if err != nil {
			return nil, err
		}
		outs, err := eval(ctx, jobs)
		if err != nil {
			return nil, err
		}
		// The base candidate is scored alone, in the first round: it is
		// every other candidate's speedup denominator.
		scored := make([]Scored, len(cands))
		for i, c := range cands {
			key := c.Key()
			logSum := 0.0
			for wi, out := range outs[i*len(p.Workloads) : (i+1)*len(p.Workloads)] {
				switch out.Tier {
				case exp.TierSimulated:
					tiers.Simulated++
				case exp.TierMemo:
					tiers.Memo++
				case exp.TierDisk:
					tiers.Disk++
				}
				if key == baseKey {
					baseMetrics[wi] = out.Metrics
					continue
				}
				logSum += math.Log(out.Metrics.Speedup(baseMetrics[wi]))
			}
			score := Score{Speedup: 1}
			if key != baseKey {
				score.Speedup = math.Exp(logSum / float64(len(p.Workloads)))
				cfg, err := sp.Config(c)
				if err != nil {
					return nil, err
				}
				est := area.Compare(&sp.BaseCfg, &cfg)
				score.AreaMM2 = est.TotalMM2
				score.OverheadFrac = est.OverheadFrac
			}
			scored[i] = Scored{Cand: c, Score: score}
		}
		return scored, nil
	}

	scored, status, err := search(sp, p.Objective, p.MaxRounds, probe, onRound)
	if err != nil {
		return nil, err
	}
	frontier := Frontier(scored)
	rec, feasible := p.Objective.Recommend(frontier)
	res := &Result{
		Status:       status,
		ProbesDigest: probesDigest(sp, scored),
		Feasible:     feasible,
	}
	for _, s := range frontier {
		res.Frontier = append(res.Frontier, point(sp, s))
	}
	if len(frontier) > 0 {
		pt := point(sp, rec)
		res.Recommended = &pt
	}
	return res, nil
}

// configRef wires a candidate to its content-addressed cell: the base
// preset itself for the zero deviation, else its config inline, labelled
// "<base>-patched" as a patch of the base would be.
func configRef(sp *Space, c Candidate) (exp.ConfigRef, error) {
	if len(sp.Sets(c)) == 0 {
		return exp.PresetRef(sp.BaseName), nil
	}
	cfg, err := sp.Config(c)
	cfg.Name = sp.BaseName + "-patched"
	return exp.InlineConfig(cfg), err
}

func point(sp *Space, s Scored) api.ExplorePoint {
	sets := sp.Sets(s.Cand)
	if sets == nil {
		sets = []string{}
	}
	return api.ExplorePoint{
		Sets:         sets,
		Speedup:      s.Score.Speedup,
		AreaMM2:      s.Score.AreaMM2,
		OverheadFrac: s.Score.OverheadFrac,
	}
}

// probesDigest hashes the sorted probe set: two runs explored the same
// lattice points iff the digests match.
func probesDigest(sp *Space, all []Scored) string {
	lines := make([]string, len(all))
	for i, s := range all {
		lines[i] = strings.Join(sp.Sets(s.Cand), " ")
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:8])
}

// Resource assembles the wire resource for a plan in a given state. A
// finished result carries its own final status, which stands in for
// status.
func (p *Plan) Resource(id string, state api.ExplorationState, status Status, res *Result, errMsg string) api.Exploration {
	if res != nil {
		status = res.Status
	}
	labels := make([]string, len(p.Workloads))
	for i, w := range p.Workloads {
		labels[i] = w.Label()
	}
	ex := api.Exploration{
		ID:        id,
		State:     state,
		Strategy:  searchName,
		Base:      p.Space.BaseName,
		Workloads: labels,
		Objective: p.Request.Objective,
		GridSize:  p.Space.GridSize(),
		Probes:    status.Probes,
		Rounds:    status.Rounds,
		Tiers:     status.Tiers,
		Error:     errMsg,
	}
	if ex.Rounds == nil {
		ex.Rounds = []api.ExploreRound{}
	}
	if res != nil {
		ex.ProbesDigest = res.ProbesDigest
		ex.Feasible = res.Feasible
		ex.Frontier = res.Frontier
		ex.Recommended = res.Recommended
	}
	return ex
}

package explore

import (
	"fmt"
	"sort"
	"strings"
)

// Score is one probed candidate's measured outcome: geometric-mean
// speedup over the requested workloads relative to the base
// configuration, and the area cost of the deviation per
// internal/area.Compare.
type Score struct {
	Speedup      float64
	AreaMM2      float64
	OverheadFrac float64
}

// Scored pairs a candidate with its score.
type Scored struct {
	Cand  Candidate
	Score Score
}

// Objective is the search goal, one of two constraint forms:
//
//   - target-speedup ≥ X, minimize area (TargetSpeedup set)
//   - area-budget ≤ Y mm², maximize speedup (AreaBudgetMM2 set)
type Objective struct {
	// TargetSpeedup is the speedup constraint of the minimize-area form.
	TargetSpeedup float64
	// AreaBudgetMM2 is the cost constraint of the maximize-speedup form.
	AreaBudgetMM2 float64
}

// ParseObjective validates the wire form: exactly one constraint, and
// the optimized quantity — if spelled out — matching it.
func ParseObjective(targetSpeedup, areaBudget float64, minimize, maximize string) (Objective, error) {
	hasTarget := targetSpeedup != 0
	hasBudget := areaBudget != 0
	switch {
	case hasTarget && hasBudget:
		return Objective{}, fmt.Errorf("explore: objective must set targetSpeedup or areaBudgetMM2, not both")
	case !hasTarget && !hasBudget:
		return Objective{}, fmt.Errorf("explore: objective needs targetSpeedup or areaBudgetMM2")
	case hasTarget:
		if !(targetSpeedup >= 1) { // also rejects NaN
			return Objective{}, fmt.Errorf("explore: targetSpeedup must be ≥ 1, got %g", targetSpeedup)
		}
		if m := strings.TrimSpace(minimize); m != "" && m != "area" {
			return Objective{}, fmt.Errorf("explore: with targetSpeedup the only minimizable quantity is \"area\", got %q", minimize)
		}
		if strings.TrimSpace(maximize) != "" {
			return Objective{}, fmt.Errorf("explore: maximize conflicts with targetSpeedup (speedup is the constraint)")
		}
		return Objective{TargetSpeedup: targetSpeedup}, nil
	default:
		if !(areaBudget > 0) {
			return Objective{}, fmt.Errorf("explore: areaBudgetMM2 must be > 0, got %g", areaBudget)
		}
		if m := strings.TrimSpace(maximize); m != "" && m != "speedup" {
			return Objective{}, fmt.Errorf("explore: with areaBudgetMM2 the only maximizable quantity is \"speedup\", got %q", maximize)
		}
		if strings.TrimSpace(minimize) != "" {
			return Objective{}, fmt.Errorf("explore: minimize conflicts with areaBudgetMM2 (area is the constraint)")
		}
		return Objective{AreaBudgetMM2: areaBudget}, nil
	}
}

// Feasible reports whether a score satisfies the objective's constraint.
func (o Objective) Feasible(s Score) bool {
	if o.TargetSpeedup > 0 {
		return s.Speedup >= o.TargetSpeedup
	}
	return s.AreaMM2 <= o.AreaBudgetMM2
}

// Better is the objective's strict total order over scored candidates:
// feasible beats infeasible; among feasible points the optimized
// quantity wins (minimum area under a speedup target, maximum speedup
// under an area budget); among infeasible points, proximity to the
// constraint wins. Ties fall through to the secondary quantity and then
// the candidate key, so the order — and the search built on it — is
// deterministic.
func (o Objective) Better(a, b Scored) bool {
	fa, fb := o.Feasible(a.Score), o.Feasible(b.Score)
	if fa != fb {
		return fa
	}
	type cmp struct{ x, y float64 } // prefer smaller x, then larger y
	var ca, cb cmp
	switch {
	case o.TargetSpeedup > 0 && fa: // minimize area
		ca = cmp{a.Score.AreaMM2, a.Score.Speedup}
		cb = cmp{b.Score.AreaMM2, b.Score.Speedup}
	case o.TargetSpeedup > 0: // chase the target
		ca = cmp{-a.Score.Speedup, -a.Score.AreaMM2}
		cb = cmp{-b.Score.Speedup, -b.Score.AreaMM2}
	case fa: // maximize speedup
		ca = cmp{-a.Score.Speedup, -a.Score.AreaMM2}
		cb = cmp{-b.Score.Speedup, -b.Score.AreaMM2}
	default: // shrink back toward the budget
		ca = cmp{a.Score.AreaMM2, a.Score.Speedup}
		cb = cmp{b.Score.AreaMM2, b.Score.Speedup}
	}
	if ca.x != cb.x {
		return ca.x < cb.x
	}
	if ca.y != cb.y {
		return ca.y > cb.y
	}
	return a.Cand.Key() < b.Cand.Key()
}

// TopK returns the k objective-best elements of scored, best first,
// without mutating the input.
func (o Objective) TopK(scored []Scored, k int) []Scored {
	out := append([]Scored{}, scored...)
	sort.Slice(out, func(i, j int) bool { return o.Better(out[i], out[j]) })
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// Frontier returns the Pareto-optimal subset of scored — no other probe
// has both higher speedup and lower (or equal) area — sorted by
// ascending area. The baseline probe (area 0, speedup 1) anchors the
// frontier whenever it was scored.
func Frontier(scored []Scored) []Scored {
	pts := append([]Scored{}, scored...)
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.Score.AreaMM2 != b.Score.AreaMM2 {
			return a.Score.AreaMM2 < b.Score.AreaMM2
		}
		if a.Score.Speedup != b.Score.Speedup {
			return a.Score.Speedup > b.Score.Speedup
		}
		return a.Cand.Key() < b.Cand.Key()
	})
	var out []Scored
	bestSpeedup := 0.0
	for _, p := range pts {
		if p.Score.Speedup > bestSpeedup {
			out = append(out, p)
			bestSpeedup = p.Score.Speedup
		}
	}
	return out
}

// Recommend picks the single answer from a frontier: the cheapest point
// meeting a speedup target, or the fastest point within an area budget.
// When nothing satisfies the constraint it returns the closest point and
// feasible=false.
func (o Objective) Recommend(frontier []Scored) (rec Scored, feasible bool) {
	if len(frontier) == 0 {
		return Scored{}, false
	}
	if o.TargetSpeedup > 0 {
		for _, p := range frontier { // ascending area: first hit is cheapest
			if p.Score.Speedup >= o.TargetSpeedup {
				return p, true
			}
		}
		return frontier[len(frontier)-1], false // fastest available
	}
	var best *Scored
	for i, p := range frontier {
		if p.Score.AreaMM2 <= o.AreaBudgetMM2 {
			best = &frontier[i] // ascending area ⇒ speedup also ascends on the frontier
		}
	}
	if best != nil {
		return *best, true
	}
	return frontier[0], false // cheapest available
}

package explore

import (
	"fmt"
	"slices"

	"gpumembw/internal/api"
)

// searchName is the search's wire name: the only value a request's
// strategy field may spell out, and the one every resource reports.
const searchName = "halving"

// search is successive halving over a coarse-to-fine lattice, and must be
// deterministic: no randomness, no time, no map iteration — the same
// space and objective request the identical probe sequence. The base
// round scores the baseline alone: every speedup is measured against it.
// The screen round scores the coarse skeleton — every single-knob
// deviation and the all-max corner. Then each refinement round keeps the
// objective-best half of the survivor beam and expands it on the finer
// lattice: survivors merged pairwise (combining the structures that
// helped), each survivor's knobs stepped one rung cheaper (shedding cost
// the objective doesn't need), and the incumbent's knobs stepped one rung
// up (buying speedup it still lacks). The beam halves every round, so the
// search sharpens from coarse coverage to local refinement in O(log n)
// rounds, stopping early once a single survivor stops improving.
//
// search keeps the probe ledger. probe scores one round's candidates, all
// fresh and valid, in order, counting each cell's cache tier into tiers;
// publish (optional) observes the status after every round. search
// returns every scored candidate in probe order, the base first, and the
// final status.
func search(sp *Space, obj Objective, maxRounds int,
	probe func(cands []Candidate, tiers *api.ExploreTiers) ([]Scored, error),
	publish func(Status)) ([]Scored, Status, error) {
	seen := map[string]bool{} // every candidate proposed, valid or not
	var scored []Scored
	var best Scored // the incumbent
	var status Status

	// add proposes c, the one place a candidate is deduplicated and
	// validated: one not proposed before is recorded as seen and, if it
	// passes validation, appended to cands.
	add := func(cands []Candidate, c Candidate) []Candidate {
		if key := c.Key(); !seen[key] {
			seen[key] = true
			if sp.Valid(c) {
				cands = append(cands, c)
			}
		}
		return cands
	}
	// round scores cands, updates the incumbent and publishes the round;
	// improved reports whether some candidate beat the incumbent.
	round := func(label string, cands []Candidate) (improved bool, err error) {
		fresh, err := probe(cands, &status.Tiers)
		if err != nil {
			return false, err
		}
		for _, s := range fresh {
			if len(scored) == 0 || obj.Better(s, best) {
				best, improved = s, true
			}
			scored = append(scored, s)
		}
		status.Probes = len(scored)
		status.Rounds = append(status.Rounds, api.ExploreRound{
			Label:       label,
			Probes:      len(fresh),
			BestSpeedup: best.Score.Speedup,
			BestAreaMM2: best.Score.AreaMM2,
			Feasible:    obj.Feasible(best.Score),
		})
		if publish != nil {
			st := status
			st.Rounds = slices.Clone(status.Rounds)
			publish(st)
		}
		return improved, nil
	}

	base := sp.Baseline()
	if _, err := round("base", add(nil, base)); err != nil {
		return nil, Status{}, err
	}
	var screen []Candidate
	for i, ax := range sp.Knobs {
		for lvl := range ax.Values {
			screen = add(screen, sp.WithLevel(base, i, lvl))
		}
	}
	if _, err := round("screen", add(screen, sp.AllMax())); err != nil {
		return nil, Status{}, err
	}
	beam := (len(scored) + 1) / 2
	for r := 1; r <= maxRounds; r++ {
		children := expand(sp, obj, obj.TopK(scored, beam), best, add)
		if len(children) == 0 {
			break
		}
		improved, err := round(fmt.Sprintf("halve-%d", r), children)
		if err != nil {
			return nil, Status{}, err
		}
		if beam == 1 && !improved {
			break
		}
		beam = (beam + 1) / 2
	}
	return scored, status, nil
}

// expand proposes one refinement round's children through add,
// deterministically ordered.
func expand(sp *Space, obj Objective, surv []Scored, incumbent Scored, add func([]Candidate, Candidate) []Candidate) []Candidate {
	var out []Candidate
	// Pairwise merges of the leading survivors: combine structures that
	// each helped alone.
	lead := min(len(surv), 6)
	for i := 0; i < lead; i++ {
		for j := i + 1; j < lead; j++ {
			out = add(out, sp.Merge(surv[i].Cand, surv[j].Cand))
		}
	}
	// One rung cheaper on each survivor's knobs, below the base too (the
	// 16 B request flit of Fig. 12's 16+48 sits under the baseline's 32 B):
	// the cost-shedding half of Fig. 12's methodology. Ladders ascend in
	// value and in area, so the rung below is the cheaper one.
	for _, s := range surv {
		for i := range sp.Knobs {
			if lvl := sp.Level(s.Cand, i); lvl > 0 {
				out = add(out, sp.WithLevel(s.Cand, i, lvl-1))
			}
		}
	}
	// One rung up on the incumbent's knobs: keep buying speedup while
	// the constraint is unmet.
	if !obj.Feasible(incumbent.Score) || obj.TargetSpeedup == 0 {
		for i, ax := range sp.Knobs {
			if lvl := sp.Level(incumbent.Cand, i); lvl < len(ax.Values)-1 {
				out = add(out, sp.WithLevel(incumbent.Cand, i, lvl+1))
			}
		}
	}
	return out
}

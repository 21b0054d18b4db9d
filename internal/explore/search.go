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
// The screen round scores every single-knob deviation. Then each
// refinement round keeps the objective-best half of the survivor beam and
// expands it on the finer lattice: survivors merged pairwise (combining
// the structures that helped), each survivor's knobs stepped one rung
// cheaper (shedding cost the objective doesn't need), and the incumbent's
// knobs stepped one rung up (buying speedup; once a target is met, only a
// step that adds no area can win). The beam halves every round, so the
// search sharpens from coarse coverage to local refinement in O(log n)
// rounds. It stops after maxRounds, or when a round has nothing new to
// probe — at a beam of one, that is the round after the incumbent stops
// improving, since its steps were all proposed already.
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
	// round scores cands, updates the incumbent and publishes the round.
	round := func(label string, cands []Candidate) error {
		fresh, err := probe(cands, &status.Tiers)
		if err != nil {
			return err
		}
		for _, s := range fresh {
			if len(scored) == 0 || obj.Better(s, best) {
				best = s
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
		return nil
	}

	base := sp.Baseline()
	if err := round("base", add(nil, base)); err != nil {
		return nil, Status{}, err
	}
	var screen []Candidate
	for i, ax := range sp.Knobs {
		for lvl := range ax.Values {
			screen = add(screen, sp.WithLevel(base, i, lvl))
		}
	}
	if err := round("screen", screen); err != nil {
		return nil, Status{}, err
	}
	beam := (len(scored) + 1) / 2
	for r := 1; r <= maxRounds; r++ {
		children := expand(sp, obj.TopK(scored, beam), best, add)
		if len(children) == 0 {
			break
		}
		if err := round(fmt.Sprintf("halve-%d", r), children); err != nil {
			return nil, Status{}, err
		}
		beam = (beam + 1) / 2
	}
	return scored, status, nil
}

// expand proposes one refinement round's children through add,
// deterministically ordered.
func expand(sp *Space, surv []Scored, incumbent Scored, add func([]Candidate, Candidate) []Candidate) []Candidate {
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
	// One rung up on the incumbent's knobs: buying speedup. Once a target
	// is met this still pays where a step adds no area (Objective.Better
	// ranks equal-area points by speedup).
	for i, ax := range sp.Knobs {
		if lvl := sp.Level(incumbent.Cand, i); lvl < len(ax.Values)-1 {
			out = add(out, sp.WithLevel(incumbent.Cand, i, lvl+1))
		}
	}
	return out
}

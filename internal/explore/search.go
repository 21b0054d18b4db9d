package explore

import (
	"fmt"
)

// RoundFunc evaluates one round of candidates and returns their scores,
// in request order minus duplicates and lattice points that fail
// validation. Already-scored candidates come back from the driver's
// candidate memo without re-probing, so the search can freely re-request
// points (the baseline, a survivor) for bookkeeping.
type RoundFunc func(label string, cands []Candidate) ([]Scored, error)

// searchName is the search's wire name: the only value a request's
// strategy field may spell out, and the one every resource reports.
const searchName = "halving"

// search is successive halving over a coarse-to-fine lattice, and must be
// deterministic: no randomness, no time, no map iteration — the same
// space and objective request the identical probe sequence. The screen
// round scores the coarse skeleton — the baseline, every single-knob
// deviation, and the all-max corner. Then each refinement round keeps the
// objective-best half of the survivor beam and expands it on the finer
// lattice: survivors merged pairwise (combining the structures that
// helped), each survivor's knobs stepped one rung cheaper (shedding cost
// the objective doesn't need), and the incumbent's knobs stepped one rung
// up (buying speedup it still lacks). The beam halves every round, so the
// search sharpens from coarse coverage to local refinement in O(log n)
// rounds, stopping early once a single survivor stops improving.
func search(sp *Space, obj Objective, maxRounds int, round RoundFunc) error {
	var screen []Candidate
	screen = append(screen, sp.Baseline())
	for i, ax := range sp.Knobs {
		for lvl := range ax.Values {
			if lvl == ax.Base {
				continue
			}
			if c := sp.WithLevel(sp.Baseline(), i, lvl); sp.Valid(c) {
				screen = append(screen, c)
			}
		}
	}
	if c := sp.AllMax(); sp.Valid(c) {
		screen = append(screen, c)
	}
	scored, err := round("screen", screen)
	if err != nil {
		return err
	}
	if len(scored) == 0 {
		return fmt.Errorf("explore: no valid lattice point to screen")
	}

	seen := map[string]bool{}
	for _, s := range scored {
		seen[s.Cand.Key()] = true
	}
	incumbent := obj.Best(scored)
	beam := (len(scored) + 1) / 2
	for r := 1; r <= maxRounds; r++ {
		surv := obj.TopK(scored, beam)
		children := expand(sp, obj, surv, incumbent, seen)
		if len(children) == 0 {
			break
		}
		fresh, err := round(fmt.Sprintf("halve-%d", r), children)
		if err != nil {
			return err
		}
		scored = append(scored, fresh...)
		newBest := obj.Best(scored)
		improved := obj.Better(newBest, incumbent)
		incumbent = newBest
		if beam == 1 && !improved {
			break
		}
		beam = (beam + 1) / 2
	}
	return nil
}

// expand generates one refinement round's children, deterministically
// ordered, deduplicated against everything already probed.
func expand(sp *Space, obj Objective, surv []Scored, incumbent Scored, seen map[string]bool) []Candidate {
	var out []Candidate
	add := func(c Candidate) {
		key := c.Key()
		if seen[key] || !sp.Valid(c) {
			return
		}
		seen[key] = true
		out = append(out, c)
	}
	// Pairwise merges of the leading survivors: combine structures that
	// each helped alone.
	lead := len(surv)
	if lead > 6 {
		lead = 6
	}
	for i := 0; i < lead; i++ {
		for j := i + 1; j < lead; j++ {
			add(sp.Merge(surv[i].Cand, surv[j].Cand))
		}
	}
	// One rung cheaper on each survivor's knobs, below the base too (the
	// 16 B request flit of Fig. 12's 16+48 sits under the baseline's 32 B):
	// the cost-shedding half of Fig. 12's methodology. Ladders ascend in
	// value and in area, so the rung below is the cheaper one.
	for _, s := range surv {
		for i := range sp.Knobs {
			if lvl := sp.Level(s.Cand, i); lvl > 0 {
				add(sp.WithLevel(s.Cand, i, lvl-1))
			}
		}
	}
	// One rung up on the incumbent's knobs: keep buying speedup while
	// the constraint is unmet.
	if !obj.Feasible(incumbent.Score) || obj.TargetSpeedup == 0 {
		for i, ax := range sp.Knobs {
			if lvl := sp.Level(incumbent.Cand, i); lvl < len(ax.Values)-1 {
				add(sp.WithLevel(incumbent.Cand, i, lvl+1))
			}
		}
	}
	return out
}

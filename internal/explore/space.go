// Package explore searches the mitigation knob space of the paper's
// design study (Table III) instead of enumerating it: every probe is a
// content-addressed simulation cell (so repeated searches replay from
// the memo and disk caches), scored by measured speedup against its
// area cost from internal/area, and one search — successive halving
// over a coarse-to-fine lattice — walks the lattice toward an objective
// ("reach 1.5× speedup, minimize area" or "spend at most 10 mm²,
// maximize speedup"). The result is the Pareto frontier over everything
// probed plus one recommended point, reproducing Fig. 12's
// cost-effective methodology as an optimization rather than a grid.
package explore

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
)

// Axis is one searchable knob: a canonical dotted path and the ascending
// ladder of values the lattice allows it, one of which is the base
// configuration's own value.
type Axis struct {
	// Path is the canonical dotted knob path ("l2.num_banks").
	Path string
	// Values is the ascending value ladder, in Set's textual form.
	Values []string
	// Base indexes the base configuration's value within Values.
	Base int
}

// Space is the search lattice: a base configuration and the knob axes.
// The exhaustive grid it replaces has GridSize cells; the search visits
// a small, deterministic subset.
type Space struct {
	// BaseName is the preset the lattice is anchored on.
	BaseName string
	// BaseCfg is the resolved base configuration.
	BaseCfg config.Config
	// Knobs holds the axes in a fixed, deterministic order.
	Knobs []Axis
}

// Candidate is one lattice point: a ladder level per axis, parallel to
// Space.Knobs. The zero deviation (every knob at its base level) is the
// base configuration itself.
type Candidate struct {
	levels []int
}

// Key returns the candidate's deterministic identity within its space.
func (c Candidate) Key() string {
	parts := make([]string, len(c.levels))
	for i, l := range c.levels {
		parts[i] = strconv.Itoa(l)
	}
	return strings.Join(parts, ",")
}

// NewSpace builds the lattice over base. With no explicit knobs every
// knob of config.TableIII gets its default ladder (defaultAxis); explicit
// knobs give each axis its own value list (the base configuration's value
// is inserted if absent).
// Axes are sorted by path, so the lattice — and everything derived from
// it — is independent of request spelling order.
func NewSpace(baseName string, baseCfg config.Config, knobs []api.ExploreKnob) (*Space, error) {
	sp := &Space{BaseName: baseName, BaseCfg: baseCfg}
	if len(knobs) == 0 {
		base, ce := config.Baseline(), config.CostEffective16x48()
		for r := range config.TableIII {
			row := &config.TableIII[r]
			for i, path := range row.Knobs {
				ax, err := defaultAxis(baseCfg, path, int64(*row.Field(&ce, i)), int64(*row.Field(&base, i)))
				if err != nil {
					return nil, err
				}
				sp.Knobs = append(sp.Knobs, ax)
			}
		}
	} else {
		seen := map[string]bool{}
		for _, ks := range knobs {
			ax, err := customAxis(baseCfg, ks)
			if err != nil {
				return nil, err
			}
			if seen[ax.Path] {
				return nil, fmt.Errorf("explore: knob %q listed twice", ax.Path)
			}
			seen[ax.Path] = true
			sp.Knobs = append(sp.Knobs, ax)
		}
	}
	sort.Slice(sp.Knobs, func(i, j int) bool { return sp.Knobs[i].Path < sp.Knobs[j].Path })
	if !sp.Valid(sp.Baseline()) {
		return nil, fmt.Errorf("explore: base configuration %q is itself invalid", baseName)
	}
	return sp, nil
}

// defaultAxis is the Table III ladder of one knob: its value on baseCfg
// times ×1, ×2 and ×4 (the paper's scaling points) and times num/den, the
// knob's cost-effective 16+48 value over its baseline value (Fig. 12's
// 48-entry L1 MSHRs, 16 B request and 48 B reply flits), as exact
// rationals so every rung of an integer knob stays integral.
func defaultAxis(baseCfg config.Config, path string, num, den int64) (Axis, error) {
	rungs := [][2]int64{{1, 1}, {2, 1}, {4, 1}, {num, den}}
	slices.SortFunc(rungs, func(a, b [2]int64) int { return cmp.Compare(a[0]*b[1], b[0]*a[1]) })
	// The knob's value on baseCfg, not on the baseline preset: the lattice
	// may be anchored on any preset (HBM, cost-effective, ...).
	k, err := config.KnobOn(baseCfg, path)
	if err != nil {
		return Axis{}, fmt.Errorf("explore: %w", err)
	}
	baseVal := k.Baseline
	bv, err := strconv.ParseInt(baseVal, 10, 64)
	if err != nil {
		return Axis{}, fmt.Errorf("explore: knob %s: default ladder needs an integer base, got %q", k.Path, baseVal)
	}
	ax := Axis{Path: k.Path, Base: -1}
	for _, r := range rungs {
		v := bv * r[0]
		if v%r[1] != 0 {
			continue // non-integral rung for this base; skip it
		}
		v /= r[1]
		if v < 1 || (k.Max > 0 && float64(v) > k.Max) {
			continue
		}
		val := strconv.FormatInt(v, 10)
		if n := len(ax.Values); n > 0 && ax.Values[n-1] == val {
			continue // the cost-effective rung repeats a scaling point
		}
		if val == baseVal {
			ax.Base = len(ax.Values)
		}
		ax.Values = append(ax.Values, val)
	}
	if ax.Base < 0 {
		return Axis{}, fmt.Errorf("explore: knob %s: ladder lost the base value %s", k.Path, baseVal)
	}
	return ax, nil
}

func customAxis(baseCfg config.Config, ks api.ExploreKnob) (Axis, error) {
	vals := make([]string, len(ks.Values))
	for i, v := range ks.Values {
		vals[i] = strings.TrimSpace(v)
	}
	// Every rung meets the knob's own parse and range, as one -set would.
	k, err := config.KnobOn(baseCfg, ks.Path, vals...)
	if err != nil {
		return Axis{}, fmt.Errorf("explore: %w", err)
	}
	baseVal := k.Baseline
	if len(ks.Values) == 0 {
		return Axis{}, fmt.Errorf("explore: knob %s: needs at least one value", k.Path)
	}
	if k.Type != "int" && k.Type != "float" {
		return Axis{}, fmt.Errorf("explore: knob %s has type %s; only numeric knobs are searchable", k.Path, k.Type)
	}
	// Dedupe and sort ascending; insert the base value if absent.
	vals = append(vals, baseVal)
	type pv struct {
		f float64
		s string
	}
	var parsed []pv
	seen := map[float64]bool{}
	for _, v := range vals {
		f, _ := strconv.ParseFloat(v, 64) // KnobOn parsed it as the knob's type
		if seen[f] {
			continue
		}
		seen[f] = true
		if k.Type == "int" {
			v = strconv.FormatInt(int64(f), 10)
		}
		parsed = append(parsed, pv{f, v})
	}
	sort.Slice(parsed, func(i, j int) bool { return parsed[i].f < parsed[j].f })
	ax := Axis{Path: k.Path, Base: -1}
	baseF, _ := strconv.ParseFloat(baseVal, 64)
	for i, p := range parsed {
		if p.f == baseF {
			ax.Base = i
		}
		ax.Values = append(ax.Values, p.s)
	}
	if ax.Base < 0 {
		return Axis{}, fmt.Errorf("explore: knob %s: ladder lost the base value %s", k.Path, baseVal)
	}
	return ax, nil
}

// Baseline returns the zero-deviation candidate.
func (sp *Space) Baseline() Candidate {
	levels := make([]int, len(sp.Knobs))
	for i, ax := range sp.Knobs {
		levels[i] = ax.Base
	}
	return Candidate{levels}
}

// WithLevel returns c with knob i moved to ladder level lvl.
func (sp *Space) WithLevel(c Candidate, i, lvl int) Candidate {
	levels := append([]int{}, c.levels...)
	levels[i] = lvl
	return Candidate{levels}
}

// Level returns c's ladder level on knob i.
func (sp *Space) Level(c Candidate, i int) int { return c.levels[i] }

// Merge returns the elementwise maximum of two candidates — the cheapest
// lattice point at least as scaled as both.
func (sp *Space) Merge(a, b Candidate) Candidate {
	levels := make([]int, len(sp.Knobs))
	for i := range levels {
		levels[i] = a.levels[i]
		if b.levels[i] > levels[i] {
			levels[i] = b.levels[i]
		}
	}
	return Candidate{levels}
}

// Sets returns the candidate's non-base knob assignments in axis order
// (which is path order) as Set-style strings. Empty for the baseline.
func (sp *Space) Sets(c Candidate) []string {
	var sets []string
	for i, ax := range sp.Knobs {
		if c.levels[i] != ax.Base {
			sets = append(sets, ax.Path+"="+ax.Values[c.levels[i]])
		}
	}
	return sets
}

// Config resolves the candidate to a concrete configuration.
func (sp *Space) Config(c Candidate) (config.Config, error) {
	cfg := sp.BaseCfg
	if err := cfg.Set(sp.Sets(c)...); err != nil {
		return config.Config{}, err
	}
	return cfg, nil
}

// Valid reports whether the candidate resolves to a configuration that
// passes Validate — cross-field constraints (bank divisibility, bus
// width alignment, ...) prune lattice points the per-knob bounds admit.
func (sp *Space) Valid(c Candidate) bool {
	cfg, err := sp.Config(c)
	return err == nil && cfg.Validate() == nil
}

// GridSize returns the exhaustive lattice size the explorer avoids
// enumerating: the product of every axis's ladder length.
func (sp *Space) GridSize() int64 {
	n := int64(1)
	for _, ax := range sp.Knobs {
		n *= int64(len(ax.Values))
		if n > 1<<40 { // plenty to report "huge"; avoid overflow
			return 1 << 40
		}
	}
	return n
}

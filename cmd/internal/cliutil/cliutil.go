// Package cliutil holds tiny flag-parsing helpers shared by the
// command-line tools, so their flag semantics cannot drift apart.
package cliutil

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
)

// SplitCSV splits a comma-separated flag value, trimming whitespace and
// dropping empty items.
func SplitCSV(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// ParseBytes parses a byte-size flag value: a non-negative integer with
// an optional K/M/G suffix (binary, i.e. KiB/MiB/GiB; case-insensitive,
// optional trailing B or iB). "0" means unbounded wherever the value is
// a bound.
func ParseBytes(s string) (int64, error) {
	t := strings.TrimSpace(s)
	mult := int64(1)
	upper := strings.ToUpper(t)
	for _, suffix := range []struct {
		tag string
		mul int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30},
	} {
		if strings.HasSuffix(upper, suffix.tag) {
			mult = suffix.mul
			t = t[:len(t)-len(suffix.tag)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("invalid byte size %q: want a non-negative integer with optional K/M/G suffix", s)
	}
	if mult > 1 && n > (1<<62)/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// StringList collects a repeatable string flag (flag.Value), e.g. the
// -set, -spec and -knob flags.
type StringList []string

// String implements flag.Value.
func (l *StringList) String() string { return strings.Join(*l, ",") }

// Set implements flag.Value.
func (l *StringList) Set(v string) error { *l = append(*l, v); return nil }

// ParseKnobs parses the -knob flags every sweeping command shares, each
// "path=v1,v2,…", into knob axes in flag order: the knob's canonical path
// and its values, each held by config.KnobOn to the parse and range one
// -set of it meets. A missing "=", an empty value list, an unknown path
// and a knob named twice are refused.
func ParseKnobs(specs []string) ([]api.ExploreKnob, error) {
	var axes []api.ExploreKnob
	seen := map[string]bool{}
	for _, s := range specs {
		path, list, ok := strings.Cut(s, "=")
		if !ok {
			return nil, fmt.Errorf("-knob wants path=v1,v2,..., got %q", s)
		}
		vals := SplitCSV(list)
		if len(vals) == 0 {
			return nil, fmt.Errorf("-knob %s: needs at least one value", path)
		}
		k, err := config.KnobOn(config.Baseline(), path, vals...)
		if err != nil {
			return nil, fmt.Errorf("-knob %s: %w", s, err)
		}
		if seen[k.Path] {
			return nil, fmt.Errorf("-knob %s: knob named twice", k.Path)
		}
		seen[k.Path] = true
		axes = append(axes, api.ExploreKnob{Path: k.Path, Values: vals})
	}
	return axes, nil
}

// KnobPoints parses -knob flags (ParseKnobs) into their cross product: one
// list of Set assignments ("path=value") per point, the first axis varying
// slowest. No flags make one point with no assignments.
func KnobPoints(specs []string) ([][]string, error) {
	axes, err := ParseKnobs(specs)
	if err != nil {
		return nil, err
	}
	points := [][]string{nil}
	for _, ax := range axes {
		next := make([][]string, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				next = append(next, append(slices.Clip(p), ax.Path+"="+v))
			}
		}
		points = next
	}
	return points, nil
}

// ResolveConfigFlags resolves the -config/-config-file/-set flag trio
// shared by gpusim and gpusimctl into one configuration form, so the two
// tools land every spelling on the same cell. Without -set, the preset
// name, full config document or patch document passes through. With
// -set, the knobs are set on the document, on the patch applied to its
// base, or on the preset (labelled "<base>-patched", as a patch of it
// would be), and the result is an inline config. Callers reject
// -config/-config-file conflicts before calling.
func ResolveConfigFlags(name, file string, sets []string) (exp.ConfigRef, error) {
	var cfg *config.Config
	patch := &config.Patch{Base: name}
	if file != "" {
		var err error
		if cfg, patch, err = config.ReadConfigFile(file); err != nil {
			return exp.ConfigRef{}, err
		}
	}
	switch {
	case len(sets) == 0 && file == "":
		return exp.PresetRef(name), nil
	case len(sets) == 0:
		return exp.ConfigRef{Config: cfg, Patch: patch}, nil // one of the two is nil
	case patch != nil:
		applied, err := patch.Apply()
		if err != nil {
			return exp.ConfigRef{}, err
		}
		cfg = &applied
	}
	if err := cfg.Set(sets...); err != nil {
		return exp.ConfigRef{}, err
	}
	return exp.InlineConfig(*cfg), nil
}

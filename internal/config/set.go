package config

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Set applies knob=value assignments — the engine behind every CLI's -set
// flag. A path is a knob table path (Knobs, GET /v1/knobs), matched
// ignoring case, underscores and dashes ("L1.MSHREntries" names
// l1.mshr_entries). Values parse by the knob's type: integers, finite
// floats, booleans, strings, and mode names ("infinite-bw"). Set changes
// c only if every assignment parses; Validate range-checks the result.
//
//	cfg := Baseline()
//	err := cfg.Set("l1.mshr_entries=128", "dram.timing.rcd=14")
func (c *Config) Set(assignments ...string) error {
	next := *c
	rows := knobTable(&next)
	for _, a := range assignments {
		path, val, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("config: -set %q: want knob=value", a)
		}
		k, err := findKnob(rows[:], path)
		if err != nil {
			return err
		}
		if err := k.parse(val); err != nil {
			return err
		}
	}
	*c = next
	return nil
}

// parse stores val, in Set's textual form, in the row's field.
func (k *knob) parse(val string) error {
	var err error
	switch p := k.field.(type) {
	case *int:
		*p, err = strconv.Atoi(val)
	case *int64:
		*p, err = strconv.ParseInt(val, 10, 64)
	case *float64:
		*p, err = strconv.ParseFloat(val, 64)
		if err == nil && (math.IsNaN(*p) || math.IsInf(*p, 0)) {
			err = fmt.Errorf("want a finite number, got %q", val)
		}
	case *bool:
		*p, err = strconv.ParseBool(val)
	case *string:
		*p = val
	case *Mode:
		*p, err = ParseMode(val)
	}
	if err != nil {
		return fmt.Errorf("config: knob %q: %w", k.path, err)
	}
	return nil
}

// findKnob returns the row path names, ignoring case, underscores and
// dashes. A miss lists the knobs of path's group, or the top-level names.
func findKnob(rows []knob, path string) (*knob, error) {
	want := normalizeKnob(path)
	for i := range rows {
		if normalizeKnob(rows[i].path) == want {
			return &rows[i], nil
		}
	}
	group := want[:max(strings.LastIndexByte(want, '.'), 0)]
	var known []string
	for i := range rows {
		if strings.HasPrefix(normalizeKnob(rows[i].path), group+".") {
			known = append(known, rows[i].path)
		}
	}
	if len(known) == 0 {
		for i := range rows {
			top, _, _ := strings.Cut(rows[i].path, ".")
			if n := len(known); n == 0 || known[n-1] != top {
				known = append(known, top)
			}
		}
	}
	return nil, fmt.Errorf("config: unknown knob %q (known here: %s)", path, strings.Join(known, ", "))
}

func normalizeKnob(s string) string {
	s = strings.ToLower(s)
	s = strings.ReplaceAll(s, "_", "")
	return strings.ReplaceAll(s, "-", "")
}

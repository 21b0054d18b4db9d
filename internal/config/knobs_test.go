package config

import (
	"reflect"
	"strings"
	"testing"
)

// Every enumerated knob must round-trip through Set: the canonical path
// with the baseline value applied to the baseline config is a no-op
// assignment that Set accepts. This pins Knobs() and Set to the same
// field tree.
func TestKnobsRoundTripThroughSet(t *testing.T) {
	for _, k := range Knobs() {
		cfg := Baseline()
		if err := cfg.Set(k.Path + "=" + k.Baseline); err != nil {
			t.Errorf("Set(%s=%s): %v", k.Path, k.Baseline, err)
		}
	}
}

// The knob table must cover Config exactly: one row per leaf, bound to
// that leaf's address, in declaration order, under a path that is the Go
// field path respelled — so adding a Config field without deciding its
// range and liveness fails here rather than shipping an unchecked,
// unhashed knob. Every numeric knob but max_cycles must also be capped.
func TestKnobBoundsComplete(t *testing.T) {
	var cfg Config
	rows := knobTable(&cfg)
	var leaves []any
	var names []string
	var walk func(v reflect.Value, prefix string)
	walk = func(v reflect.Value, prefix string) {
		for i := 0; i < v.NumField(); i++ {
			name := prefix + v.Type().Field(i).Name
			if fv := v.Field(i); fv.Kind() == reflect.Struct {
				walk(fv, name+".")
			} else {
				leaves = append(leaves, fv.Addr().Interface())
				names = append(names, name)
			}
		}
	}
	walk(reflect.ValueOf(&cfg).Elem(), "")
	if len(leaves) != len(rows) {
		t.Fatalf("Config has %d leaves but the knob table has %d rows", len(leaves), len(rows))
	}
	knobs := Knobs()
	for i := range rows {
		k := &rows[i]
		if k.field != leaves[i] {
			t.Errorf("row %d (%s) is not bound to leaf %d (%s)", i, k.path, i, names[i])
		}
		if normalizeKnob(k.path) != normalizeKnob(names[i]) || k.path != strings.ToLower(k.path) {
			t.Errorf("row %d: path %q is not a lower-case respelling of %s", i, k.path, names[i])
		}
		if knobs[i].Path != k.path {
			t.Errorf("Knobs()[%d] = %s, want row order (%s)", i, knobs[i].Path, k.path)
		}
		numeric := knobs[i].Type == "int" || knobs[i].Type == "float"
		if numeric && k.max == 0 && k.path != "max_cycles" {
			t.Errorf("numeric knob %s has no upper bound", k.path)
		}
		if !numeric && (k.min != 0 || k.max != 0) {
			t.Errorf("non-numeric knob %s carries a range", k.path)
		}
	}
}

func TestKnobsSpotChecks(t *testing.T) {
	byPath := map[string]Knob{}
	for _, k := range Knobs() {
		byPath[k.Path] = k
	}
	mshr, ok := byPath["l1.mshr_entries"]
	if !ok {
		t.Fatalf("l1.mshr_entries missing from %d knobs", len(byPath))
	}
	if mshr.Type != "int" || mshr.Baseline != "32" || mshr.Min != 1 || mshr.Max != 1<<20 {
		t.Errorf("l1.mshr_entries = %+v", mshr)
	}
	if k := byPath["mode"]; k.Type != "mode" || k.Baseline != "normal" {
		t.Errorf("mode knob = %+v", k)
	}
	if k := byPath["dram.timing.rcd"]; k.Type != "int" || k.Max != 1<<20 {
		t.Errorf("dram.timing.rcd = %+v", k)
	}
	if k := byPath["core.clock_mhz"]; k.Type != "float" || k.Baseline != "1400" {
		t.Errorf("core.clock_mhz = %+v", k)
	}
	for p := range byPath {
		if strings.Contains(p, "m_hz") || strings.Contains(p, "mshre") {
			t.Errorf("ugly path segment: %s", p)
		}
	}
}

// Looking a knob up by path (KnobOn) matches with Set's fuzzy spelling rules.
func TestKnobByPathFuzzy(t *testing.T) {
	for _, spelling := range []string{"l1.mshr_entries", "L1.MSHREntries", "l1.mshrentries"} {
		k, err := KnobOn(Baseline(), spelling)
		if err != nil {
			t.Fatalf("KnobOn(%q): %v", spelling, err)
		}
		if k.Path != "l1.mshr_entries" {
			t.Errorf("KnobOn(%q) = %s", spelling, k.Path)
		}
	}
	if _, err := KnobOn(Baseline(), "l1.nope"); err == nil {
		t.Error("KnobOn accepted unknown knob")
	}
}

// Two knobs name hardware the model does not implement: the SM is
// single-issue and the L2 ticks in the crossbar's clock domain. Perturbing
// either must be a Validate error naming the knob — not a second cell
// with a fresh ID and the baseline's metrics.
func TestUnmodeledKnobsRefuse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sets    []string
		mode    Mode
		wantErr string // "" means the config must validate
	}{
		{"dual issue", []string{"core.issue_width=2"}, ModeNormal, "core.issue_width"},
		{"zero issue", []string{"core.issue_width=0"}, ModeNormal, "core.issue_width"},
		{"dual issue under P-inf", []string{"core.issue_width=2"}, ModeInfiniteBW, "core.issue_width"},
		{"L2 clock alone", []string{"l2.clock_mhz=1400"}, ModeNormal, "set icnt.clock_mhz to scale both"},
		{"icnt clock alone", []string{"icnt.clock_mhz=1400"}, ModeNormal, "l2.clock_mhz"},
		{"both clocks together", []string{"icnt.clock_mhz=1400", "l2.clock_mhz=1400"}, ModeNormal, ""},
		{"L2 clock where the L2 is not timed", []string{"l2.clock_mhz=1400"}, ModeInfiniteBW, ""},
	} {
		cfg := Baseline()
		cfg.Mode = tc.mode
		for _, kv := range tc.sets {
			if err := cfg.Set(kv); err != nil {
				t.Fatalf("%s: Set(%s): %v", tc.name, kv, err)
			}
		}
		err := cfg.Validate()
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: Validate = %v, want an error naming %q", tc.name, err, tc.wantErr)
		}
	}
	// Every cell that exists today is still valid.
	for name, cfg := range Presets() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s no longer validates: %v", name, err)
		}
	}
	if k, err := KnobOn(Baseline(), "core.issue_width"); err != nil || k.Min != 1 || k.Max != 1 {
		t.Errorf("GET /v1/knobs would advertise core.issue_width as %+v, want the single value 1", k)
	}
}

package cliutil

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
)

// TestResolveConfigFlagsSpellingsShareACell: a preset, the preset's
// knobs as -set on the baseline, a full config file with -set on top, a
// patch file, and a patch file with -set on top resolve to one form each
// and all land on the same cell.
func TestResolveConfigFlagsSpellingsShareACell(t *testing.T) {
	sets := []string{"l1.mshr_entries=128", "l1.miss_queue_entries=32", "core.mem_pipeline_width=40"}
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	patch := func(sets ...string) config.Patch {
		delta, err := config.DeltaFromSets(sets)
		if err != nil {
			t.Fatal(err)
		}
		return config.Patch{Base: "baseline", Delta: delta}
	}
	full := write("full.json", config.Baseline())
	whole := write("whole.json", patch(sets...))
	part := write("part.json", patch(sets[0]))

	want := exp.Job{Config: exp.PresetRef("L1-4x"), Workload: exp.BenchRef("mm")}.CellID()
	for _, tc := range []struct {
		name, file string
		sets       []string
		form       string
	}{
		{"L1-4x", "", nil, "preset"},
		{"baseline", "", sets, "patch"},
		{"", full, sets, "config"},
		{"", whole, nil, "patch"},
		{"", part, sets[1:], "patch"},
	} {
		ref, err := ResolveConfigFlags(tc.name, tc.file, tc.sets)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		var forms []string
		if ref.Preset != "" {
			forms = append(forms, "preset")
		}
		if ref.Config != nil {
			forms = append(forms, "config")
		}
		if ref.Patch != nil {
			forms = append(forms, "patch")
		}
		if len(forms) != 1 || forms[0] != tc.form {
			t.Errorf("%+v resolved to forms %v, want just %s", tc, forms, tc.form)
		}
		if got := (exp.Job{Config: ref, Workload: exp.BenchRef("mm")}).CellID(); got != want {
			t.Errorf("%+v lands on cell %s, want L1-4x's %s", tc, got, want)
		}
	}
	if ref, err := ResolveConfigFlags("baseline", "", []string{"bogus"}); err == nil {
		t.Errorf("a malformed -set resolved to %+v", ref)
	}
}

// TestParseKnobs: each -knob is one axis in flag order under the knob's
// canonical path, and KnobPoints crosses the axes with the first varying
// slowest.
func TestParseKnobs(t *testing.T) {
	axes, err := ParseKnobs([]string{"L2.NumBanks=24, 48", "l1.mshr_entries=64,128"})
	if err != nil {
		t.Fatal(err)
	}
	want := []api.ExploreKnob{
		{Path: "l2.num_banks", Values: []string{"24", "48"}},
		{Path: "l1.mshr_entries", Values: []string{"64", "128"}},
	}
	if !reflect.DeepEqual(axes, want) {
		t.Errorf("axes %+v, want %+v", axes, want)
	}
	points, err := KnobPoints([]string{"L2.NumBanks=24, 48", "l1.mshr_entries=64,128"})
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := [][]string{
		{"l2.num_banks=24", "l1.mshr_entries=64"},
		{"l2.num_banks=24", "l1.mshr_entries=128"},
		{"l2.num_banks=48", "l1.mshr_entries=64"},
		{"l2.num_banks=48", "l1.mshr_entries=128"},
	}
	if !reflect.DeepEqual(points, wantPoints) {
		t.Errorf("points %q, want %q", points, wantPoints)
	}
	if got, err := KnobPoints(nil); err != nil || len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("no -knob flags make points %q, %v; want one empty point", got, err)
	}
	if axes, err := ParseKnobs(nil); err != nil || axes != nil {
		t.Errorf("no -knob flags parse to %+v, %v; want nil, nil", axes, err)
	}
}

// TestParseKnobsRefuses: a value out of the knob's range, an unknown
// path, a missing "=", an empty value list and a knob named twice are
// each refused.
func TestParseKnobsRefuses(t *testing.T) {
	for _, specs := range [][]string{
		{"l1.mshr_entries=0"},
		{"l1.mshr_entries=64,0"},
		{"l1.mshr_entries=many"},
		{"l1.nope=1"},
		{"l1.mshr_entries"},
		{"l1.mshr_entries="},
		{"l1.mshr_entries= , "},
		{"l1.mshr_entries=64", "L1.MSHREntries=128"},
	} {
		if axes, err := ParseKnobs(specs); err == nil {
			t.Errorf("%q parsed to %+v", specs, axes)
		}
		if points, err := KnobPoints(specs); err == nil {
			t.Errorf("%q crossed to %q", specs, points)
		}
	}
}

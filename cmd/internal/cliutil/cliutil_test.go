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
	full := write("full.json", config.Baseline())
	whole := write("whole.json", json.RawMessage(
		`{"base":"baseline","L1":{"MSHREntries":128,"MissQueueEntries":32},"Core":{"MemPipelineWidth":40}}`))
	part := write("part.json", json.RawMessage(`{"base":"baseline","L1":{"MSHREntries":128}}`))

	want := exp.Job{Config: exp.PresetRef("L1-4x"), Workload: exp.BenchRef("mm")}.CellID()
	for _, tc := range []struct {
		name, file string
		sets       []string
		form       string
	}{
		{"L1-4x", "", nil, "preset"},
		{"baseline", "", sets, "config"},
		{"", full, sets, "config"},
		{"", whole, nil, "patch"},
		{"", part, sets[1:], "config"},
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

// TestResolveConfigFlagsSetMatchesHandwrittenPatch: -set on a preset
// lands on the cell of the handwritten patch of the same knobs, under the
// label that patch's Apply gives it — on every preset, for a renaming
// name=, a mode=, and a knob the P-inf mode never reads.
func TestResolveConfigFlagsSetMatchesHandwrittenPatch(t *testing.T) {
	type setCase struct {
		sets  []string
		delta string
	}
	common := []setCase{
		{[]string{"l1.mshr_entries=128"}, `"L1":{"MSHREntries":128}`},
		{[]string{"L2.NumBanks=48", "dram.timing.rcd=14"}, `"L2":{"NumBanks":48},"DRAM":{"Timing":{"RCD":14}}`},
		{[]string{"name=tuned", "l1.mshr_entries=64"}, `"Name":"tuned","L1":{"MSHREntries":64}`},
		{[]string{"mode=infinite-bw"}, `"Mode":"infinite-bw"`},
	}
	cases := map[string][]setCase{
		"P-inf": {{[]string{"l1.miss_queue_entries=-1"}, `"L1":{"MissQueueEntries":-1}`}},
	}
	for _, name := range config.Names() {
		cases[name] = append(cases[name], common...)
	}
	for name, list := range cases {
		for _, sc := range list {
			var hand config.Patch
			if err := json.Unmarshal([]byte(`{"base":"`+name+`",`+sc.delta+`}`), &hand); err != nil {
				t.Fatal(err)
			}
			handJob := exp.Job{Config: exp.PatchRef(hand), Workload: exp.BenchRef("mm")}
			applied, err := hand.Apply()
			if err != nil {
				t.Fatalf("%s %s: %v", name, sc.delta, err)
			}
			if _, err := handJob.Resolve(); err != nil {
				t.Fatalf("%s %s: the handwritten patch does not resolve: %v", name, sc.delta, err)
			}
			ref, err := ResolveConfigFlags(name, "", sc.sets)
			if err != nil {
				t.Fatalf("%s -set %q: %v", name, sc.sets, err)
			}
			if ref.Config == nil {
				t.Errorf("%s -set %q resolved to %+v, want an inline config", name, sc.sets, ref)
				continue
			}
			if got, want := (exp.Job{Config: ref, Workload: exp.BenchRef("mm")}).CellID(), handJob.CellID(); got != want {
				t.Errorf("%s -set %q lands on cell %s, the handwritten patch on %s", name, sc.sets, got, want)
			}
			if got := ref.Label(); got != applied.Name {
				t.Errorf("%s -set %q is labelled %q, the handwritten patch %q", name, sc.sets, got, applied.Name)
			}
		}
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

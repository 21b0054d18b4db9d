package main

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gpumembw"
	"gpumembw/internal/config"
	"gpumembw/internal/trace"
)

func columns(t *testing.T, levels, factors string, knobs ...string) []config.Config {
	t.Helper()
	cols, err := configColumns(levels, factors, knobs)
	if err != nil {
		t.Fatalf("-levels %q -factor %q -knob %q: %v", levels, factors, knobs, err)
	}
	return cols
}

// A level scaled by the presets' factor is the preset's twin: same
// hardware identity, so the same simulation cell.
func TestLevelColumnsArePresetTwins(t *testing.T) {
	for _, tc := range []struct{ level, preset, name string }{
		{"l2", "L2-4x", "l2-4x"},
		{"dram", "DRAM-4x", "dram-4x"},
	} {
		cols := columns(t, tc.level, "4")
		preset, err := config.ByName(tc.preset)
		if err != nil {
			t.Fatal(err)
		}
		if len(cols) != 1 || cols[0].Identity() != preset.Identity() || cols[0].Name != tc.name {
			t.Errorf("-levels %s -factor 4 gives %d columns, the first %q; want one %s twin named %s",
				tc.level, len(cols), cols[0].Name, tc.preset, tc.name)
		}
	}
}

// -factor takes a list: one column per factor, each config.Scale's.
func TestFactorList(t *testing.T) {
	cols := columns(t, "dram", "2,4")
	if len(cols) != 2 {
		t.Fatalf("-levels dram -factor 2,4 gives %d columns, want 2", len(cols))
	}
	for i, f := range []int{2, 4} {
		want := config.Baseline()
		if err := config.Scale(&want, config.LevelDRAM, f); err != nil {
			t.Fatal(err)
		}
		if cols[i].Identity() != want.Identity() {
			t.Errorf("column %d (%s) is not the baseline with DRAM scaled %d×", i, cols[i].Name, f)
		}
	}
}

// The knobs that -mshr 64 -missq 16 set (the L1 MSHRs, and the L1 and L2
// miss queues together) build the same configuration as three -knob axes.
func TestKnobColumnsAreTheMitigationFlags(t *testing.T) {
	cols := columns(t, "", "4", "l1.mshr_entries=64", "l1.miss_queue_entries=16", "l2.miss_queue_entries=16")
	want := config.Baseline()
	want.L1.MSHREntries = 64
	want.L1.MissQueueEntries = 16
	want.L2.MissQueueEntries = 16
	if len(cols) != 1 || cols[0].Identity() != want.Identity() {
		t.Fatalf("got %d columns, the first %+v; want the baseline with 64 MSHRs and 16-entry miss queues", len(cols), cols[0])
	}
	if name := "l1.mshr_entries=64/l1.miss_queue_entries=16/l2.miss_queue_entries=16"; cols[0].Name != name {
		t.Errorf("column named %q, want %q", cols[0].Name, name)
	}
}

// Columns are one cross product: each level point, then each knob point
// on top of it.
func TestColumnsCrossLevelsWithKnobs(t *testing.T) {
	cols := columns(t, "dram", "2,4", "l2.num_banks=24,48")
	var names []string
	for _, c := range cols {
		names = append(names, c.Name)
	}
	want := []string{
		"dram-2x/l2.num_banks=24", "dram-2x/l2.num_banks=48",
		"dram-4x/l2.num_banks=24", "dram-4x/l2.num_banks=48",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("columns %q, want %q", names, want)
	}
	for i, c := range cols {
		banks := []int{24, 48}[i%2]
		scaled := config.Baseline()
		if err := config.Scale(&scaled, config.LevelDRAM, 2<<(i/2)); err != nil {
			t.Fatal(err)
		}
		scaled.L2.NumBanks = banks
		if c.Identity() != scaled.Identity() {
			t.Errorf("column %s is not DRAM ×%d with %d L2 banks", c.Name, 2<<(i/2), banks)
		}
	}
}

func TestColumnsRefused(t *testing.T) {
	for _, tc := range []struct {
		levels, factors string
		knobs           []string
	}{
		{"", "4", []string{"l1.mshr_entries=0"}},
		{"", "4", []string{"l1.nope=1"}},
		{"", "4", []string{"l1.mshr_entries"}},
		{"", "4", []string{"l1.mshr_entries="}},
		{"l3", "4", nil},
		{"l2", "two", nil},
		{"l2", "", nil},
		{"l2", "0", nil},
		// Each value is in range, but 7 banks do not divide across the
		// DRAM partitions.
		{"", "4", []string{"l2.num_banks=7"}},
	} {
		if cols, err := configColumns(tc.levels, tc.factors, tc.knobs); err == nil {
			t.Errorf("-levels %q -factor %q -knob %q gave %d columns", tc.levels, tc.factors, tc.knobs, len(cols))
		}
	}
}

// With neither -levels nor -knob there is no column to compare: bwexplore
// prints its usage and exits 2 before simulating anything.
func TestNoColumnAxisIsUsage(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "bwexplore")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-bench", "mm").CombinedOutput()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || !strings.Contains(string(out), "-knob") {
		t.Errorf("bwexplore -bench mm: %v, want exit 2 with usage\n%s", err, out)
	}
}

// -base with workload axes derives one inline spec per point of the
// axes' cross product: the named benchmark's spec with the swept fields
// set, named by the axes actually swept.
func TestWorkloadAxisDerivesSpecVariants(t *testing.T) {
	refs, err := workloadAxis("mm", "", "1,8", "24", "")
	if err != nil {
		t.Fatal(err)
	}
	var want []trace.Spec
	for _, c := range []int{1, 8} {
		spec, err := gpumembw.SpecByName("mm")
		if err != nil {
			t.Fatal(err)
		}
		spec.Name = fmt.Sprintf("mm/c%d/t24", c)
		spec.LinesPerAccess, spec.WarpsPerCore = c, 24
		want = append(want, spec)
	}
	if len(refs) != len(want) {
		t.Fatalf("got %d workloads, want %d", len(refs), len(want))
	}
	for i, ref := range refs {
		if ref.Spec == nil || ref.Bench != "" || !reflect.DeepEqual(*ref.Spec, want[i]) {
			t.Errorf("workload %d = %+v, want the spec %+v", i, ref, want[i])
		}
	}
}

// The workload axes are refused without -base, -base is refused beside
// -bench, and -base is refused without an axis.
func TestWorkloadAxisRefused(t *testing.T) {
	for _, tc := range []struct{ base, benches, coalesce, tlp, ws string }{
		{"", "", "1,8", "", ""},
		{"", "", "", "24", ""},
		{"", "", "", "", "64"},
		{"mm", "mm", "1,8", "", ""},
		{"mm", "", "", "", ""},
	} {
		if refs, err := workloadAxis(tc.base, tc.benches, tc.coalesce, tc.tlp, tc.ws); err == nil {
			t.Errorf("%+v expanded to %d workloads", tc, len(refs))
		}
	}
}

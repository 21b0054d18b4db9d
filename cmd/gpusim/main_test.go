package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnmodeledKnobsExitNonZero runs the built CLI: a -set on a knob the
// model does not implement must exit non-zero naming the knob, never print
// the baseline's metrics under a patched label.
func TestUnmodeledKnobsExitNonZero(t *testing.T) {
	bin := buildCLI(t)
	for _, tc := range []struct{ set, want string }{
		{"core.issue_width=2", "core.issue_width"},
		{"l2.clock_mhz=1400", "l2.clock_mhz"},
	} {
		out, err := exec.Command(bin, "-bench", "leukocyte", "-set", tc.set).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited {
			t.Errorf("gpusim -set %s: err = %v, want a non-zero exit\n%s", tc.set, err, out)
		}
		if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "cycles") {
			t.Errorf("gpusim -set %s: output does not refuse the knob by name:\n%s", tc.set, out)
		}
	}
}

// TestFailedRunFlushesProfiles holds the exits that follow profiles.Start
// to prof.Flags.Exit: a run that fails before simulating (an unreadable
// config file, an unreadable spec, a malformed -set) must still write the
// heap profile, which only Stop writes and a bare os.Exit skips.
func TestFailedRunFlushesProfiles(t *testing.T) {
	bin := buildCLI(t)
	for _, args := range [][]string{
		{"-config-file", "/nonexistent.json"},
		{"-spec", "/nonexistent.json"},
		{"-bench", "leukocyte", "-set", "bogus"},
	} {
		heap := filepath.Join(t.TempDir(), "heap.pprof")
		out, err := exec.Command(bin, append(args, "-memprofile", heap)...).CombinedOutput()
		if _, exited := err.(*exec.ExitError); !exited {
			t.Errorf("gpusim %v: err = %v, want a non-zero exit\n%s", args, err, out)
		}
		if st, err := os.Stat(heap); err != nil || st.Size() == 0 {
			t.Errorf("gpusim %v: the failed run left no heap profile (stat error: %v)", args, err)
		}
	}
}

// TestTextWriteFailureExitsNonZero holds the text path to the JSON path's
// rule: output that could not be written is a failed run.
func TestTextWriteFailureExitsNonZero(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	cmd := exec.Command(buildCLI(t), "-bench", "leukocyte")
	cmd.Stdout = full
	if err := cmd.Run(); err == nil {
		t.Fatal("gpusim -bench leukocyte > /dev/full exited 0")
	}
}

func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gpusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnmodeledKnobsExitNonZero runs the built CLI: a -set on a knob the
// model does not implement must exit non-zero naming the knob, never print
// the baseline's metrics under a patched label.
func TestUnmodeledKnobsExitNonZero(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "gpusim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
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

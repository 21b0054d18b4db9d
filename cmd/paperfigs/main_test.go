package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestTextWriteFailureExitsNonZero runs the built CLI with stdout on a
// full device: a report that could not be written is a failed run, in text
// as in JSON.
func TestTextWriteFailureExitsNonZero(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	bin := filepath.Join(t.TempDir(), "paperfigs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-only", "tableI,tableIII", "-q"},
		{"-only", "tableI,tableIII", "-q", "-json"},
	} {
		cmd := exec.Command(bin, args...)
		cmd.Stdout = full
		if err := cmd.Run(); err == nil {
			t.Errorf("paperfigs %v > /dev/full exited 0", args)
		}
	}
}

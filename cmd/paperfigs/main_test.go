package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// build compiles the CLI into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "paperfigs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestOnlyIgnoresEmptyItems: a trailing comma or a blank item in -only
// names no section, as in the other CLIs' comma-separated flags; an
// -only of nothing but separators is refused, not read as "everything".
func TestOnlyIgnoresEmptyItems(t *testing.T) {
	bin := build(t)
	out, err := exec.Command(bin, "-only", "tableI, ,", "-q").Output()
	if err != nil {
		t.Fatalf("paperfigs -only \"tableI, ,\": %v", err)
	}
	if !strings.HasPrefix(string(out), "Table I") || strings.Contains(string(out), "Table III") {
		t.Errorf("paperfigs -only \"tableI, ,\" printed:\n%s", out)
	}
	if out, err := exec.Command(bin, "-only", " , ", "-q").Output(); err == nil {
		t.Errorf("paperfigs -only \" , \" exited 0 and printed %d bytes", len(out))
	}
}

// TestTextWriteFailureExitsNonZero runs the built CLI with stdout on a
// full device: a report that could not be written is a failed run, in text
// as in JSON.
func TestTextWriteFailureExitsNonZero(t *testing.T) {
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full: %v", err)
	}
	defer full.Close()
	bin := build(t)
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

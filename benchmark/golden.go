package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The goldens are the program's outputs at seed 0, generated with
// -update-goldens from the commit that added the benchmark: the sha256 of
// every cell's Metrics JSON, and the report's text and JSON in full. A run
// at seed 0 that differs from them counts failed operations.
//
//go:embed testdata/cells.golden.json testdata/report.golden.txt testdata/report.golden.json
var goldenFS embed.FS

// goldenDir is where -update-goldens writes, relative to the repository
// root the benchmark is run from.
const goldenDir = "benchmark/testdata"

func loadCellGoldens() (map[string]string, error) {
	data, err := goldenFS.ReadFile("testdata/cells.golden.json")
	if err != nil {
		return nil, err
	}
	gold := make(map[string]string)
	if err := json.Unmarshal(data, &gold); err != nil {
		return nil, fmt.Errorf("cells.golden.json: %w", err)
	}
	return gold, nil
}

// updateCellGoldens merges the hashes of one workload's cells into the
// golden file.
func updateCellGoldens(hashes map[string]string) error {
	path := filepath.Join(goldenDir, "cells.golden.json")
	gold := make(map[string]string)
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &gold); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	for k, v := range hashes {
		gold[k] = v
	}
	data, err := json.MarshalIndent(gold, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadReportGoldens() (text, js []byte, err error) {
	if text, err = goldenFS.ReadFile("testdata/report.golden.txt"); err != nil {
		return nil, nil, err
	}
	js, err = goldenFS.ReadFile("testdata/report.golden.json")
	return text, js, err
}

func updateReportGoldens(text, js []byte) error {
	if err := os.WriteFile(filepath.Join(goldenDir, "report.golden.txt"), text, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(goldenDir, "report.golden.json"), js, 0o644)
}

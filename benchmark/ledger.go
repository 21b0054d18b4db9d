package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// runAll is the ledger run: every workload in a fresh child process of
// its own, so that set-up time and peak memory are per workload, untraced
// first and then, with -trace 1, traced. The children print their metrics;
// runAll gathers their result files into one.
func runAll(seed uint64, seconds, trace, runs int, outDir string, update bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []*runResult
	var failed []string
	spans := make(map[string]json.RawMessage)
	child := func(workload string, traced int) {
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traced), "-out", outDir}
		if update {
			args = append(args, "-update-goldens")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s (trace %d): %v", workload, traced, err))
		}
		name := fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, traced)
		f, err := readResultFile(filepath.Join(outDir, name))
		if err != nil {
			failed = append(failed, err.Error())
			return
		}
		all = append(all, f.Runs...)
		if traced == 1 {
			if data, err := os.ReadFile(filepath.Join(outDir, "spans-"+workload+".json")); err == nil {
				spans[workload] = data
			}
		}
	}
	for _, w := range workloadDefs {
		for i := 0; i < runs; i++ {
			child(w.Name, 0)
		}
		if trace != 0 {
			child(w.Name, 1)
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("ledger-seed%d.json", seed))
	if err := writeResultFile(path, runtime.GOMAXPROCS(0), all); err != nil {
		return err
	}
	fmt.Printf("ledger: %d runs in %s\n", len(all), path)
	if trace != 0 {
		data, err := json.Marshal(spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(outDir, "spans.json"), data, 0o644); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return errors.New(joinShort(failed, 5))
	}
	return nil
}

// Verdicts of -compare.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// judge compares one metric on one workload: a holds the values of the
// first file's runs, b the second's. A metric is unresolved when too few
// runs of a side kept their calibration spread within the limit, so that
// host time cannot be trusted, or when the run-to-run spread on either side
// is wider than the metric's bound and the two sides' runs overlap.
func judge(d metricDef, a, b []float64, hostTimeTrusted bool) string {
	ma, mb := median(a), median(b)
	gain := func(x, y float64) float64 { // > 0 when y is better than x, as a share of x
		if d.Better == higher {
			return ratio(y-x, math.Abs(x))
		}
		return ratio(x-y, math.Abs(x))
	}
	switch g := gain(ma, mb); {
	case d.Exact:
		if g > 0 {
			return better
		} else if g < 0 {
			return worse
		}
		return unchanged
	case !hostTimeTrusted && d.hostTime():
		return unresolved
	case len(a) > 1 && len(b) > 1 && (spread(a) > d.Bound || spread(b) > d.Bound):
		sa, sb := sorted(a), sorted(b)
		worstB, bestA := sb[len(sb)-1], sa[0]
		if d.Better == higher {
			worstB, bestA = sb[0], sa[len(sa)-1]
		}
		if gain(bestA, worstB) > 0 {
			return better
		}
		return unresolved
	case g < -d.Bound:
		return worse
	case g > d.Bound:
		return better
	}
	return unchanged
}

// compareFiles prints one row per workload and judged metric and fails on
// any worse verdict or on a higher failed fraction.
func compareFiles(w io.Writer, pathA, pathB string) error {
	fa, err := readResultFile(pathA)
	if err != nil {
		return err
	}
	fb, err := readResultFile(pathB)
	if err != nil {
		return err
	}
	runsA, runsB := fa.byWorkload(0), fb.byWorkload(0)
	var bad []string
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %6s %8s %8s %9s  %s\n",
		"workload", "metric", "a", "b", "change", "bound", "spread-a", "spread-b", "runs a,b", "verdict")
	for _, wl := range workloadDefs {
		ra, rb := runsA[wl.Name], runsB[wl.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		// Per-layer metrics explain a verdict; they do not get one.
		for _, d := range slices.Concat(e2eMetrics, headlineMetrics) {
			if d.Bound == 0 && !d.Exact {
				continue
			}
			// A host-clock metric is judged on the runs whose
			// calibration held still. Without two of them on a
			// side (one, if only one run was made) there is no
			// spread to judge by and no verdict.
			ta, tb := ra, rb
			if d.hostTime() {
				ta, tb = calibrated(ra), calibrated(rb)
			}
			trusted := len(ta) >= min(2, len(ra)) && len(tb) >= min(2, len(rb))
			if !trusted {
				ta, tb = ra, rb
			}
			a, b := valuesOf(ta, d.Name), valuesOf(tb, d.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v := judge(d, a, b, trusted)
			note := ""
			if !trusted {
				note = " (too few runs with a calibration spread within 10 %)"
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%% %4d/%d,%d/%d  %s%s\n",
				wl.Name, d.Name, median(a), median(b), 100*ratio(median(b)-median(a), math.Abs(median(a))),
				100*d.Bound, 100*spread(a), 100*spread(b), len(ta), len(ra), len(tb), len(rb), v, note)
			if v == worse {
				bad = append(bad, wl.Name+" "+d.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("worse: %s", joinShort(bad, 8))
	}
	return nil
}

// calibrated returns the runs whose calibration spread stayed within the
// limit.
func calibrated(runs []*runResult) []*runResult {
	var out []*runResult
	for _, r := range runs {
		if !r.Unresolved {
			out = append(out, r)
		}
	}
	return out
}

// valuesOf returns a metric's values over the runs that measured it.
func valuesOf(runs []*runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v := r.Metrics[name]; v.N > 0 {
			out = append(out, v.Value)
		}
	}
	return out
}

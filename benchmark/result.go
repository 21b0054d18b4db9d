package main

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
)

// value is one measured metric. N is the number of samples behind it; a
// metric the workload does not exercise keeps value 0 and N 0. Raw is set
// on host-clock metrics: the reading before it was brought to the
// reference machine speed (see atReferenceSpeed).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Raw   float64 `json:"raw,omitempty"`
}

// runResult is what one run of one workload produced. It is the unit of
// the result file; -compare reads lists of them. Only the goroutine that
// runs the workload touches it: the harness has one client and takes its
// measurements one after the other.
type runResult struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`

	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // first few failed checks, for the reader

	// Unresolved is set when the calibration kernel's spread over the
	// run exceeded calibSpreadLimit: host-time values are then printed
	// as unresolved and -compare gives no verdict on them.
	Unresolved     bool      `json:"unresolved"`
	CalibSpreadPct float64   `json:"calib_spread_pct"`
	CalibMs        []float64 `json:"calib_ms"` // the kernel's timings, in run order

	Metrics map[string]value `json:"metrics"`
}

func newRunResult(workload string, seed uint64, seconds, trace int) *runResult {
	r := &runResult{Workload: workload, Seed: seed, Seconds: seconds, Trace: trace, Metrics: make(map[string]value)}
	for _, d := range allMetrics() {
		r.Metrics[d.Name] = value{Unit: d.Unit}
	}
	return r
}

// set records a metric. Only names of the metric table exist, so the
// emitted set and BENCHMARK.json cannot drift apart.
func (r *runResult) set(name string, v float64, n int) {
	d, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric table")
	}
	r.Metrics[name] = value{Value: v, Unit: d.Unit, N: n}
}

// atReferenceSpeed restates every host-clock metric at the reference
// machine speed: the shared machine this runs on changes speed by a tenth
// and more within minutes, the calibration kernel's time follows that
// change within a percent or two, and the two medians of a comparison are
// usually taken at different speeds. scale is the run's calibration time
// over calibRefMs; durations are divided by it and rates multiplied.
func (r *runResult) atReferenceSpeed(scale float64) {
	for _, d := range allMetrics() {
		v := r.Metrics[d.Name]
		if v.N == 0 || !d.hostTime() || d.Name == "host.calib_ms" {
			continue
		}
		v.Raw = v.Value
		if d.Unit == "1/s" || d.Unit == "kcycles/s" {
			v.Value *= scale
		} else {
			v.Value /= scale
		}
		r.Metrics[d.Name] = v
	}
}

// attempt counts n operations as attempted.
func (r *runResult) attempt(n int) { r.Attempted += n }

// fail counts one failed operation: an error, a refusal, a timeout or
// wrong bytes.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 10 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// finalLine is the contract's last line of standard output: the
// end-to-end metrics of an untraced run, the per-layer ones of a traced run.
func (r *runResult) finalLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]mv)}
	for _, d := range allMetrics() {
		if d.E2E == (r.Trace == 0) {
			v := r.Metrics[d.Name]
			out.Metrics[d.Name] = mv{v.Value, v.Unit}
		}
	}
	return json.Marshal(out)
}

// print writes every measured metric by name with its unit and sample
// count. Host-time values of an unresolved run say so.
func (r *runResult) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d  attempted %d  failed %d  calibration spread %.1f%%\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.CalibSpreadPct)
	for _, d := range allMetrics() {
		v := r.Metrics[d.Name]
		if v.N == 0 {
			continue
		}
		kind := "layer"
		if d.E2E {
			kind = "e2e"
		}
		num := strconv.FormatFloat(v.Value, 'g', 6, 64)
		if r.Unresolved && d.hostTime() {
			num = "unresolved(" + num + ")"
		}
		raw := ""
		if v.Raw != 0 {
			raw = "  (as timed: " + strconv.FormatFloat(v.Raw, 'g', 6, 64) + ")"
		}
		fmt.Fprintf(w, "  %-5s %-28s %22s %-10s n=%d%s\n", kind, d.Name, num, v.Unit, v.N, raw)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// resultFile is the result JSON: every run made, in order.
type resultFile struct {
	Schema int          `json:"schema"`
	NProc  int          `json:"nproc"`
	Runs   []*runResult `json:"runs"`
}

func writeResultFile(path string, nproc int, runs []*runResult) error {
	data, err := json.MarshalIndent(resultFile{Schema: 1, NProc: nproc, Runs: runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// byWorkload groups a file's untraced and traced runs.
func (f *resultFile) byWorkload(trace int) map[string][]*runResult {
	out := make(map[string][]*runResult)
	for _, r := range f.Runs {
		if r.Trace == trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string { return slices.Sorted(maps.Keys(m)) }

func joinShort(items []string, n int) string {
	if len(items) > n {
		return strings.Join(items[:n], "; ") + fmt.Sprintf("; ... %d more", len(items)-n)
	}
	return strings.Join(items, "; ")
}

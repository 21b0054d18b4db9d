// Command benchguard turns `go test -bench` output into a machine-readable
// BENCH.json and compares two such files, failing on wall-time regressions.
// CI runs the pinned benchmark subset on every PR, publishes the fresh
// BENCH.json as a workflow artifact, and compares it against the baseline
// committed at the repository root:
//
//	go test -run '^$' -bench <pinned> -benchmem ./... > bench.txt
//	benchguard parse -in bench.txt -out BENCH.new.json
//	benchguard compare -baseline BENCH.json -current BENCH.new.json
//
// The baseline is recorded on one machine and checked on another (a CI
// runner of unknown speed), so compare normalizes by the MEDIAN of the
// per-benchmark ns/op ratios — the machine-speed factor — and fails only
// benchmarks that regressed more than the threshold beyond that factor.
// A uniformly slower runner shifts every ratio equally and passes; a
// single benchmark whose ratio stands out against its siblings fails.
// The blind spot is a change that slows every benchmark in the suite by
// the same amount (the median moves with it) — the suite spans five
// packages to keep that unlikely. Pass -raw to compare absolute ns/op
// instead (same-machine baselines).
//
// Custom metrics reported via b.ReportMetric (sim-cycles/s, flits/cycle,
// row-hit-%, ...) are gated too, as higher-is-better rates: a metric that
// drops more than the threshold below its baseline fails the comparison
// (unit-ticks/sim-cycle, a deterministic cost, fails by rising instead).
// Wall-clock rates like sim-cycles/s scale inversely with machine speed,
// so on a runner slower than the baseline machine (factor > 1) the floor
// is relaxed by that same factor; per-sim-cycle metrics are deterministic
// and unaffected. A baseline metric that disappears from the current run
// also fails — losing the measurement is losing the gate. Every benchmark
// and metric is printed with its signed delta, so an intentional speedup
// shows up as an explicit +NN% line to quote when refreshing the baseline.
//
// Benchmarks may carry job labels as sub-benchmark names
// ("BenchmarkSimulatorThroughput/bench=ii", ".../spec=custom"); each
// labelled entry is parsed and compared independently, with only the
// trailing -GOMAXPROCS suffix stripped. A baseline entry whose benchmark
// has since been split into labelled sub-benchmarks is reported as SPLIT
// (its coverage moved, not vanished) instead of failing as MISSING;
// refresh the baseline to adopt the labelled names.
//
// Refresh the committed baseline after an intentional performance change
// by replacing BENCH.json with the parse output.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's measurements.
type Result struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH.json schema.
type File struct {
	Note       string            `json:"note"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

const note = "benchmark baseline; regenerate with: go test -run '^$' -bench <pinned subset> -benchmem ./... | go run ./tools/benchguard parse"

// benchLine matches one `go test -bench` result line; the -N GOMAXPROCS
// suffix is stripped so results compare across machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// metricPair matches one trailing "<value> <unit>" measurement.
var metricPair = regexp.MustCompile(`\s+([\d.e+-]+) (\S+)`)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "compare":
		cmdCompare(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchguard parse [-in bench.txt] [-out BENCH.json]
  benchguard compare -baseline BENCH.json [-current BENCH.json] [-threshold 0.20] [-raw]`)
	os.Exit(2)
}

// boolFlag extracts "-name" from args, returning presence and the rest.
func boolFlag(args []string, name string) (bool, []string) {
	for i, a := range args {
		if a == "-"+name {
			return true, append(append([]string{}, args[:i]...), args[i+1:]...)
		}
	}
	return false, args
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

// flagValue extracts "-name value" from args, returning the remaining args.
func flagValue(args []string, name, def string) (string, []string) {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == "-"+name {
			return args[i+1], append(append([]string{}, args[:i]...), args[i+2:]...)
		}
	}
	return def, args
}

func cmdParse(args []string) {
	inPath, args := flagValue(args, "in", "")
	outPath, args := flagValue(args, "out", "")
	if len(args) != 0 {
		usage()
	}

	var in io.Reader = os.Stdin
	if inPath != "" {
		f, err := os.Open(inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	text, err := io.ReadAll(in)
	if err != nil {
		fatal(err)
	}

	out := File{Note: note, Benchmarks: map[string]Result{}}
	for _, line := range strings.Split(string(text), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimRight(line, "\r"))
		if m == nil {
			continue
		}
		name := m[1]
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			fatal(fmt.Errorf("line %q: %w", line, err))
		}
		r := Result{NsPerOp: ns}
		for _, pm := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pm[1], 64)
			if err != nil {
				continue
			}
			switch pm[2] {
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = map[string]float64{}
				}
				r.Metrics[pm[2]] = v
			}
		}
		if _, dup := out.Benchmarks[name]; dup {
			fatal(fmt.Errorf("duplicate benchmark name %q (did the subset run with -count > 1?)", name))
		}
		out.Benchmarks[name] = r
	}
	if len(out.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark results found in input"))
	}

	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if outPath == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fatal(err)
	}
}

// subBenchmarks returns the sorted labelled entries under name
// ("BenchmarkFoo" -> "BenchmarkFoo/bench=ii", ...).
func subBenchmarks(benchmarks map[string]Result, name string) []string {
	var subs []string
	for n := range benchmarks {
		if strings.HasPrefix(n, name+"/") {
			subs = append(subs, n)
		}
	}
	sort.Strings(subs)
	return subs
}

func readFile(path string) File {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return f
}

func cmdCompare(args []string) {
	basePath, args := flagValue(args, "baseline", "")
	curPath, args := flagValue(args, "current", "")
	thresholdStr, args := flagValue(args, "threshold", "0.20")
	raw, args := boolFlag(args, "raw")
	if basePath == "" || len(args) != 0 {
		usage()
	}
	threshold, err := strconv.ParseFloat(thresholdStr, 64)
	if err != nil {
		fatal(err)
	}
	base := readFile(basePath)
	cur := base
	if curPath != "" {
		cur = readFile(curPath)
	}

	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	// The machine-speed factor: the median ns/op ratio across the suite.
	// Comparing each benchmark against it cancels out how much faster or
	// slower this machine is than the one that recorded the baseline.
	factor := 1.0
	if !raw {
		var ratios []float64
		for _, n := range names {
			if c, ok := cur.Benchmarks[n]; ok && base.Benchmarks[n].NsPerOp > 0 {
				ratios = append(ratios, c.NsPerOp/base.Benchmarks[n].NsPerOp)
			}
		}
		if len(ratios) > 0 {
			sort.Float64s(ratios)
			factor = ratios[len(ratios)/2]
		}
		fmt.Printf("machine-speed factor (median ratio): %.2fx — flagging benchmarks beyond %.2fx\n\n",
			factor, factor*(1+threshold))
	}

	// Wall-clock rate metrics (per real second) scale inversely with the
	// machine-speed factor; on a slower runner the regression floor drops
	// with it. A faster runner only raises rates, so the floor never
	// tightens beyond the plain threshold.
	metricFloor := (1 - threshold) / math.Max(1, factor)

	failed := false
	fmt.Printf("%-40s %14s %14s %9s\n", "benchmark", "baseline", "current", "delta")
	for _, n := range names {
		b := base.Benchmarks[n]
		c, ok := cur.Benchmarks[n]
		if !ok {
			// A benchmark refactored into labelled sub-benchmarks still
			// has coverage under "<name>/..."; there is no like-for-like
			// ratio to check, so report the split without failing.
			if split := subBenchmarks(cur.Benchmarks, n); len(split) > 0 {
				fmt.Printf("%-40s %14.1f %14s %9s  SPLIT into %s (refresh the baseline)\n",
					n, b.NsPerOp, "-", "-", strings.Join(split, ", "))
				continue
			}
			fmt.Printf("%-40s %14.1f %14s %9s  MISSING\n", n, b.NsPerOp, "-", "-")
			failed = true
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := ""
		if ratio > factor*(1+threshold) {
			verdict = fmt.Sprintf("  REGRESSION (>%.0f%% beyond the suite median)", 100*threshold)
			failed = true
		}
		fmt.Printf("%-40s %14.1f %14.1f %9s%s\n", n, b.NsPerOp, c.NsPerOp, signedDelta(ratio), verdict)

		// Custom metrics, higher-is-better.
		for _, mn := range metricNames(b.Metrics, c.Metrics) {
			bv, inBase := b.Metrics[mn]
			cv, inCur := c.Metrics[mn]
			row := "  " + mn
			switch {
			case !inBase:
				fmt.Printf("%-40s %14s %14.4g %9s  new (not in baseline)\n", row, "-", cv, "-")
			case !inCur:
				fmt.Printf("%-40s %14.4g %14s %9s  MISSING metric\n", row, bv, "-", "-")
				failed = true
			case bv == 0:
				fmt.Printf("%-40s %14.4g %14.4g %9s\n", row, bv, cv, "-")
			case costMetrics[mn]:
				// A deterministic count of work done: it regresses by
				// rising, and no runner's speed moves it.
				r := cv / bv
				verdict := ""
				if r > 1+threshold {
					verdict = fmt.Sprintf("  REGRESSION (cost rose >%.0f%% above baseline)", 100*threshold)
					failed = true
				}
				fmt.Printf("%-40s %14.4g %14.4g %9s%s\n", row, bv, cv, signedDelta(r), verdict)
			default:
				r := cv / bv
				verdict := ""
				if r < metricFloor {
					verdict = fmt.Sprintf("  REGRESSION (metric dropped >%.0f%% below baseline)", 100*threshold)
					failed = true
				}
				fmt.Printf("%-40s %14.4g %14.4g %9s%s\n", row, bv, cv, signedDelta(r), verdict)
			}
		}
	}
	for n := range cur.Benchmarks {
		if _, ok := base.Benchmarks[n]; !ok {
			fmt.Printf("%-40s %14s %14.1f %9s  new (not in baseline)\n", n, "-", cur.Benchmarks[n].NsPerOp, "-")
		}
	}
	if failed {
		fmt.Println("\nFAIL: regression against the committed baseline.")
		fmt.Println("If intentional, refresh BENCH.json (see tools/benchguard docs).")
		os.Exit(1)
	}
	fmt.Println("\nOK: no benchmark or metric regressed beyond the threshold.")
}

// costMetrics are the custom metrics that are lower-is-better: every
// other metric is a rate.
var costMetrics = map[string]bool{"unit-ticks/sim-cycle": true}

// signedDelta renders a current/baseline ratio as an explicit signed
// percentage ("+101.1%", "-3.2%", "+0.0%").
func signedDelta(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", 100*(ratio-1))
}

// metricNames returns the sorted union of the two metric maps' keys.
func metricNames(a, b map[string]float64) []string {
	set := map[string]bool{}
	for n := range a {
		set[n] = true
	}
	for n := range b {
		set[n] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

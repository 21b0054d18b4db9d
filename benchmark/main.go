// Command benchmark is the repository's performance ledger: five named
// workloads, the end-to-end metrics a user of the simulator and its
// service sees, and per-layer metrics that say where the time goes, every
// one measured from outside the program under test — by timing calls into
// its public functions, reading its public stats, and sampling the
// harness's own CPU profile. See README.md.
//
//	go run ./benchmark -seed 0                 all five workloads, result JSON in .bench_build/
//	go run ./benchmark -seed 0 -trace 1        the traced run: per-layer metrics and spans.json
//	go run ./benchmark -workload report -seed 3 -seconds 10 -trace 0
//	                                           one run of one workload; last line is its result
//	go run ./benchmark -compare a.json b.json  verdict per workload and metric
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as the harness can observe
// from inside; set-up time of the run's own process counts from it.
var processStart = time.Now()

// setupSamples is how many fresh processes a run sets up, its own
// included; setup_s is their median.
const setupSamples = 3

// env is what a workload needs from the run it is part of.
type env struct {
	workload      string
	seed          uint64
	seconds       float64
	trace         bool
	updateGoldens bool
	nproc         int
	outDir        string // result files; scratch files go in a subdirectory
	tmp           string

	rec    *recorder // nil in an untraced run
	res    *runResult
	calib  *calibrator
	answer string // a traced run's CPU shares, largest first
}

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain() error {
	workload := flag.String("workload", "", "run this one workload and print its result as the last line (default: all five, each in a child process)")
	seed := flag.Uint64("seed", 0, "workload seed; 0 is the canonical Table II address streams, checked against the committed goldens")
	seconds := flag.Int("seconds", runSeconds, "how long a run measures")
	trace := flag.Int("trace", 0, "1 = traced run: spans, unit drives, CPU profile; prints the per-layer metrics")
	runs := flag.Int("runs", 1, "without -workload: runs per workload, for the run-to-run spread -compare needs")
	outDir := flag.String("out", ".bench_build", "directory for the result JSON, spans.json and scratch files")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json from the metric table and exit")
	setupOnly := flag.Bool("setup-only", false, "set the workload up and exit (the harness times this in child processes)")
	update := flag.Bool("update-goldens", false, "seed 0 only: rewrite benchmark/testdata from this run's outputs")
	flag.Parse()

	switch {
	case *printManifest:
		data, err := manifest()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(data)
		return err
	case *compare:
		if flag.NArg() != 2 {
			return errors.New("-compare needs two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *update && *seed != 0:
		return errors.New("-update-goldens needs -seed 0")
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	if *workload == "" {
		return runAll(*seed, *seconds, *trace, *runs, *outDir, *update)
	}
	if !slices.ContainsFunc(workloadDefs, func(w workloadDef) bool { return w.Name == *workload }) {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	e := &env{
		workload: *workload, seed: *seed, seconds: float64(*seconds), trace: *trace != 0,
		updateGoldens: *update, nproc: runtime.GOMAXPROCS(0), outDir: *outDir,
		res: newRunResult(*workload, *seed, *seconds, *trace), calib: &calibrator{},
	}
	if e.trace {
		e.rec = newRecorder()
	}
	return runOne(e, *setupOnly)
}

// workloadRun is a set-up workload, ready for its timed part.
type workloadRun interface {
	run(e *env)
}

func setupWorkload(e *env) (w workloadRun, err error) {
	switch e.workload {
	case "report":
		w, err = setupReport(e)
	case "service-tiers":
		w, err = setupService(e)
	default:
		w, err = setupCells(e)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}

// runOne is one run of one workload in this process.
func runOne(e *env, setupOnly bool) error {
	var err error
	if e.tmp, err = os.MkdirTemp(e.outDir, "tmp-"); err != nil {
		return err
	}
	defer os.RemoveAll(e.tmp)

	w, err := setupWorkload(e)
	if err != nil {
		return fmt.Errorf("%s: set-up: %w", e.workload, err)
	}
	setups := []float64{time.Since(processStart).Seconds()}
	if c, ok := w.(interface{ close() }); ok {
		defer c.close()
	}
	if setupOnly {
		return nil
	}

	w.run(e)
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r := e.res
	r.set("peak_rss_mb", rss, 1)
	calibMs, calibSpread := median(e.calib.ms), spread(e.calib.ms)
	r.set("host.calib_ms", calibMs, len(e.calib.ms))
	r.set("host.calib_spread_pct", 100*calibSpread, len(e.calib.ms))
	r.CalibSpreadPct, r.CalibMs, r.Unresolved = 100*calibSpread, e.calib.ms, calibSpread > calibSpreadLimit

	if e.trace {
		probeLayers(e)
		spans := e.rec.snapshot()
		path := filepath.Join(e.outDir, "spans-"+e.workload+".json")
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		fmt.Printf("%d spans in %s; self times sum to each root's duration within %.3f%%\n", len(spans), path, 100*maxSelfGap(spans))
	} else {
		// Set-up is timed in fresh processes; this one's own is the
		// first sample. While the goldens are being rewritten it stays
		// the only one: a child would still embed the old ones.
		for len(setups) < setupSamples && !e.updateGoldens {
			s, err := timeSetupChild(e)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		r.set("setup_s", median(setups), len(setups))
	}

	r.atReferenceSpeed(calibMs / calibRefMs)
	r.set("failed_frac", ratio(float64(r.Failed), float64(r.Attempted)), r.Attempted)
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.print(os.Stdout)
	if e.answer != "" {
		fmt.Printf("where does a %s nanosecond go? %s\n", e.workload, e.answer)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", e.workload, e.seed, r.Trace)
	if err := writeResultFile(filepath.Join(e.outDir, name), e.nproc, []*runResult{r}); err != nil {
		return err
	}
	line, err := r.finalLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d operations failed: %s", e.workload, r.Failed, r.Attempted, joinShort(r.Failures, 3))
	}
	return nil
}

// timeSetupChild sets the workload up in a fresh process and returns the
// seconds from starting it to its exit.
func timeSetupChild(e *env) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", e.workload, "-seed", strconv.FormatUint(e.seed, 10), "-out", e.outDir, "-setup-only")
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return time.Since(start).Seconds(), nil
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

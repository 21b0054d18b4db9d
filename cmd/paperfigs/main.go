// Command paperfigs regenerates every table and figure of the paper's
// evaluation section and writes the rendered tables to stdout (or a file).
// Simulations run on a worker pool and shared (config, benchmark) cells —
// Baseline appears in every speedup denominator — simulate exactly once,
// so the output is byte-identical for any -j.
//
// Usage:
//
//	paperfigs                    # everything (minutes; scales with -j)
//	paperfigs -only fig1,fig8    # selected sections
//	paperfigs -j 8               # worker-pool size (default GOMAXPROCS)
//	paperfigs -json              # machine-readable results
//	paperfigs -o EXPERIMENTS.out # write to a file
//	paperfigs -cpuprofile p.out  # profile the run for go tool pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpumembw/cmd/internal/cliutil"
	"gpumembw/internal/exp"
	"gpumembw/internal/prof"
)

func main() {
	only := flag.String("only", "", "comma-separated sections ("+strings.Join(exp.Sections, ",")+")")
	outPath := flag.String("o", "", "output file (default stdout)")
	workers := flag.Int("j", 0, "simulation workers (default GOMAXPROCS)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	quiet := flag.Bool("q", false, "suppress per-simulation progress on stderr")
	profiles := prof.AddFlags()
	flag.Parse()

	if err := exp.ValidateWorkers(*workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer profiles.Stop()
	defer profiles.ExitOnSignal(nil)()

	sections := cliutil.SplitCSV(*only)
	if *only != "" && len(sections) == 0 {
		fmt.Fprintln(os.Stderr, "paperfigs: -only names no section")
		profiles.Exit(2)
	}

	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiles.Exit(1)
		}
		out = f
	}

	opts := []exp.Option{exp.WithWorkers(*workers)}
	if !*quiet {
		opts = append(opts, exp.WithProgress(os.Stderr))
	}

	start := time.Now()
	s := exp.NewScheduler(opts...)
	res, err := s.Collect(sections)
	switch {
	case err != nil:
	case *asJSON:
		err = res.WriteJSON(out)
	default:
		err = res.WriteText(out)
	}
	if err == nil && out != os.Stdout {
		err = out.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiment failed:", err)
		profiles.Exit(1)
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "done in %v (%d simulated, %d cache hits, %d workers)\n",
		time.Since(start).Round(time.Second), st.Simulated, st.CacheHits, s.Workers())
}

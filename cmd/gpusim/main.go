// Command gpusim runs one workload on one memory-hierarchy configuration
// and prints the full metric set the paper measures, as text or JSON.
// The workload is a Table II benchmark name (-bench) or any custom
// workload spec as JSON (-spec); the configuration is a preset name
// (-config), a full config or patch document (-config-file), and/or
// knob=value overrides (-set) — see README.md "Custom workloads" and
// "Custom hardware configs".
//
// Usage:
//
//	gpusim -bench mm -config baseline
//	gpusim -bench mm -config L2-4x -json
//	gpusim -spec custom.json -config baseline -json
//	gpusim -bench mm -config-file mitigated.json
//	gpusim -bench mm -config baseline -set l1.mshr_entries=128 -set l1.miss_queue_entries=32
//	gpusim -bench mm -config baseline -profile prof.json
//	gpusim -bench mm -cpuprofile p.out
//	gpusim -list
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"gpumembw"
	"gpumembw/cmd/internal/cliutil"
	"gpumembw/internal/prof"
	"gpumembw/internal/trace"
)

func main() {
	bench := flag.String("bench", "mm", "benchmark name (see -list)")
	specPath := flag.String("spec", "", "path to a workload spec JSON (\"-\" for stdin); overrides -bench")
	cfgName := flag.String("config", "baseline", "configuration preset (see -list)")
	cfgFile := flag.String("config-file", "", "path to a config or patch JSON (\"-\" for stdin); overrides -config")
	var sets cliutil.StringList
	flag.Var(&sets, "set", "knob=value config override, e.g. l1.mshr_entries=128 (repeatable)")
	asJSON := flag.Bool("json", false, "emit the metrics as JSON")
	profileOut := flag.String("profile", "", "write the hierarchy bottleneck profile JSON to this file (\"-\" for stdout)")
	list := flag.Bool("list", false, "list benchmarks and configurations")
	profiles := prof.AddFlags()
	flag.Parse()
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	if *specPath != "" && explicit["bench"] {
		fmt.Fprintln(os.Stderr, "gpusim: -bench and -spec are mutually exclusive")
		os.Exit(2)
	}
	if *cfgFile != "" && explicit["config"] {
		fmt.Fprintln(os.Stderr, "gpusim: -config and -config-file are mutually exclusive")
		os.Exit(2)
	}

	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer profiles.Stop()
	defer profiles.ExitOnSignal(nil)()

	if *list {
		fmt.Println("benchmarks (Table II order):")
		for _, n := range gpumembw.BenchmarkNames() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("configs:")
		for _, n := range gpumembw.ConfigNames() {
			fmt.Printf("  %s\n", n)
		}
		return
	}

	cref, err := cliutil.ResolveConfigFlags(*cfgName, *cfgFile, sets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusim:", err)
		profiles.Exit(1)
	}

	// A single cell still goes through the engine so config/workload
	// validation, labels and metrics assembly happen in one place — the
	// same place the daemon and the sweep tools use, which is what keeps
	// `gpusim -json` byte-identical to their output for the same cell.
	s := gpumembw.NewScheduler()
	ref := gpumembw.BenchRef(*bench)
	if *specPath != "" {
		spec, err := trace.ReadSpecFile(*specPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gpusim:", err)
			profiles.Exit(1)
		}
		ref = gpumembw.SpecRef(spec)
	}
	start := time.Now()
	res, err := s.RunJobEx(context.Background(), gpumembw.Job{Config: cref, Workload: ref}, *profileOut != "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simulation failed:", err)
		profiles.Exit(1)
	}
	m := res.Metrics
	elapsed := time.Since(start)

	if *profileOut != "" {
		if err := writeProfile(*profileOut, res.Profile); err != nil {
			fmt.Fprintln(os.Stderr, "gpusim:", err)
			profiles.Exit(1)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			profiles.Exit(1)
		}
		return
	}

	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "benchmark      %s on %s\n", m.Benchmark, m.Config)
	fmt.Fprintf(w, "cycles         %d (%.1f ms wall, simulated in %v)\n", m.Cycles, m.WallSeconds*1e3, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "instructions   %d\n", m.Instructions)
	fmt.Fprintf(w, "IPC            %.3f\n", m.IPC)
	fmt.Fprintf(w, "issue stalls   %.1f%% of active cycles\n", 100*m.IssueStallFrac)
	for i, l := range m.IssueStalls.Labels {
		fmt.Fprintf(w, "  %-9s    %5.1f%%\n", l, 100*m.IssueStalls.Fractions()[i])
	}
	fmt.Fprintf(w, "AML            %.0f core cycles\n", m.AML)
	fmt.Fprintf(w, "L2-AHL         %.0f core cycles\n", m.L2AHL)
	fmt.Fprintf(w, "L1 miss rate   %.1f%%   L2 miss rate %.1f%%\n", 100*m.L1MissRate, 100*m.L2MissRate)
	fmt.Fprintf(w, "L1 stalls      ")
	for i, l := range m.L1Stalls.Labels {
		fmt.Fprintf(w, "%s %.1f%%  ", l, 100*m.L1Stalls.Fractions()[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "L2 stalls      ")
	for i, l := range m.L2Stalls.Labels {
		fmt.Fprintf(w, "%s %.1f%%  ", l, 100*m.L2Stalls.Fractions()[i])
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "L2 accessq     full %.0f%% of usage lifetime\n", 100*m.L2AccessOcc.FullFraction())
	fmt.Fprintf(w, "DRAM schedq    full %.0f%% of usage lifetime\n", 100*m.DRAMSchedOcc.FullFraction())
	fmt.Fprintf(w, "DRAM bw eff    %.1f%%   row hits %.1f%%\n", 100*m.DRAMBandwidthEff, 100*m.DRAMRowHitRate)
	fmt.Fprintf(w, "icnt util      req %.1f%%  reply %.1f%%\n", 100*m.ReqNetUtil, 100*m.ReplyNetUtil)
	if m.Truncated {
		fmt.Fprintln(w, "WARNING: run truncated by MaxCycles")
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiles.Exit(1)
	}
}

// writeProfile emits the bottleneck profile as indented JSON — the same
// encoding the daemon persists and serves, so offline and service runs
// produce byte-comparable artifacts.
func writeProfile(path string, p *gpumembw.Profile) error {
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(p); err != nil {
		return err
	}
	if path != "-" {
		fmt.Fprintf(os.Stderr, "profile: bottleneck %s (%s); wrote %s\n",
			p.Verdict.Bottleneck, p.Verdict.Reason, path)
	}
	return nil
}

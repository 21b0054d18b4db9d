// Command gpusimctl is the shell client for gpusimd: submit jobs, poll
// them, run sweeps, and inspect the daemon, over the /v1 HTTP API.
//
// Usage:
//
//	gpusimctl [-addr URL] <command> [flags]
//
//	gpusimctl submit -config baseline -bench mm -wait
//	gpusimctl submit -config-file cfg.json -bench mm -wait -metrics
//	gpusimctl submit -config baseline -set l1.mshr_entries=128 -bench mm -wait
//	gpusimctl submit -config baseline -spec custom.json -wait -metrics
//	gpusimctl submit -config baseline -bench mm -profile -wait
//	gpusimctl get <job-id>
//	gpusimctl wait <job-id>
//	gpusimctl profile <job-id>
//	gpusimctl trace <job-id>
//	gpusimctl cancel <job-id>
//	gpusimctl list [-state running] [-limit 100] [-page-token T]
//	gpusimctl sweep -configs baseline,L2-4x -benches mm,sc -wait
//	gpusimctl sweep -configs baseline -knob l1.mshr_entries=64,128 -benches mm -wait
//	gpusimctl sweep -configs baseline -config-file patch.json -benches mm -wait
//	gpusimctl sweep -configs baseline -spec a.json -spec b.json -wait
//	gpusimctl sweep-status <sweep-id> [-wait] [-json]
//	gpusimctl explore -target-speedup 1.5 -minimize area -bench mm
//	gpusimctl explore -area-budget 20 -bench mm -knob l2.num_banks=12,24,48
//	gpusimctl explore-status <exploration-id> [-wait] [-json]
//	gpusimctl knobs [-json]
//	gpusimctl stats [-json]
//	gpusimctl cluster [-json]
//	gpusimctl cluster -drain http://10.0.0.2:8372
//	gpusimctl benchmarks
//	gpusimctl configs [-json]
//	gpusimctl health
//
// The daemon address comes from -addr, or the GPUSIMD_ADDR environment
// variable, or defaults to http://127.0.0.1:8372. The address may be a
// single daemon or a coordinator — the API is identical (cluster
// requires a coordinator). `submit -wait -metrics` prints the completed
// job's metrics as indented JSON, byte-identical to `gpusim -json` for
// the same cell. Waits ride server-side long-polling; against a server
// that does not long-poll they fall back to a jittered ~200 ms poll.
// explore and explore-status take -poll as their progress-refresh
// interval.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpumembw/client"
	"gpumembw/cmd/internal/cliutil"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/trace"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gpusimctl [-addr URL] <submit|get|wait|profile|trace|cancel|list|sweep|sweep-status|explore|explore-status|knobs|stats|cluster|benchmarks|configs|health> [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusimctl:", err)
	os.Exit(1)
}

func main() {
	defaultAddr := os.Getenv("GPUSIMD_ADDR")
	if defaultAddr == "" {
		defaultAddr = "http://127.0.0.1:8372"
	}
	addr := flag.String("addr", defaultAddr, "gpusimd base URL (or $GPUSIMD_ADDR)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
	}
	c := client.New(*addr)
	ctx := context.Background()
	cmd, args := flag.Arg(0), flag.Args()[1:]

	switch cmd {
	case "submit":
		cmdSubmit(ctx, c, args)
	case "get":
		cmdGet(ctx, c, args, false)
	case "wait":
		cmdGet(ctx, c, args, true)
	case "profile":
		cmdProfile(ctx, c, args)
	case "trace":
		cmdTrace(ctx, c, args)
	case "cancel":
		cmdCancel(ctx, c, args)
	case "list":
		cmdList(ctx, c, args)
	case "sweep":
		cmdSweep(ctx, c, args)
	case "sweep-status":
		cmdSweepStatus(ctx, c, args)
	case "explore":
		cmdExplore(ctx, c, args)
	case "explore-status":
		cmdExploreStatus(ctx, c, args)
	case "knobs":
		cmdKnobs(ctx, c, args)
	case "stats":
		cmdStats(ctx, c, args)
	case "cluster":
		cmdCluster(ctx, c, args)
	case "benchmarks":
		names, err := c.Benchmarks(ctx)
		if err != nil {
			fatal(err)
		}
		for _, n := range names {
			fmt.Println(n)
		}
	case "configs":
		cmdConfigs(ctx, c, args)
	case "health":
		if err := c.Health(ctx); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	default:
		usage()
	}
}

// printJSON emits v as indented JSON — for metrics, the exact encoding
// `gpusim -json` uses, so outputs diff cleanly.
func printJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// printJob prints one job line, labelling its config and workload by the
// daemon's own rule (exp's ConfigRef and WorkloadRef labels).
func printJob(j *client.Job) {
	s := j.Spec
	fmt.Printf("%s  %-8s  config=%s bench=%s", j.ID, j.State,
		exp.ConfigRef{Preset: s.Config, Config: s.InlineConfig, Patch: s.ConfigPatch}.Label(),
		exp.WorkloadRef{Bench: s.Bench, Spec: s.InlineSpec}.Label())
	if j.Metrics != nil {
		fmt.Printf("  cycles=%d IPC=%.3f", j.Metrics.Cycles, j.Metrics.IPC)
	}
	if j.Error != "" {
		fmt.Printf("  error=%q", j.Error)
	}
	fmt.Println()
}

// finishJob handles the tail of submit/wait: optionally block, then print.
func finishJob(ctx context.Context, c *client.Client, j *client.Job, wait bool, metricsOnly, asJSON bool) {
	var err error
	if wait && !j.State.Terminal() {
		j, err = c.Wait(ctx, j.ID, 0)
		if err != nil {
			fatal(err)
		}
	}
	switch {
	case metricsOnly:
		if j.State != client.JobDone {
			fatal(fmt.Errorf("job %s is %s, no metrics (error: %s)", j.ID, j.State, j.Error))
		}
		printJSON(j.Metrics)
	case asJSON:
		printJSON(j)
	default:
		printJob(j)
	}
	if j.State == client.JobFailed {
		os.Exit(1)
	}
}

func cmdSubmit(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	cfgName := fs.String("config", "", "configuration preset name (see `gpusimctl configs`)")
	cfgFile := fs.String("config-file", "", "path to a config or patch JSON (\"-\" for stdin)")
	var sets cliutil.StringList
	fs.Var(&sets, "set", "knob=value config override, e.g. l1.mshr_entries=128 (repeatable)")
	bench := fs.String("bench", "", "benchmark name (see `gpusimctl benchmarks`)")
	specJSON := fs.String("spec", "", "path to an inline workload spec JSON (\"-\" for stdin)")
	wait := fs.Bool("wait", false, "block until the job reaches a terminal state")
	metricsOnly := fs.Bool("metrics", false, "with -wait: print only the metrics JSON (matches `gpusim -json`)")
	asJSON := fs.Bool("json", false, "print the job as JSON")
	profile := fs.Bool("profile", false, "attach the hierarchy bottleneck profiler (read it back with `gpusimctl profile`)")
	fs.Parse(args)

	spec := client.JobSpec{Bench: *bench, Profile: *profile}
	if err := fillConfig(&spec, *cfgName, *cfgFile, sets); err != nil {
		fatal(err)
	}
	if *specJSON != "" {
		wl, err := readSpecFile(*specJSON)
		if err != nil {
			fatal(err)
		}
		spec.InlineSpec = wl
	}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		fatal(err)
	}
	finishJob(ctx, c, j, *wait, *metricsOnly, *asJSON)
}

// fillConfig assembles the configuration half of a JobSpec from
// -config, -config-file and -set through the shared cliutil resolution,
// so gpusimctl ships exactly the form gpusim resolves locally and both
// tools land every spelling on the same cell.
func fillConfig(spec *client.JobSpec, name, file string, sets []string) error {
	if file != "" && name != "" {
		return fmt.Errorf("-config and -config-file are mutually exclusive")
	}
	ref, err := cliutil.ResolveConfigFlags(name, file, sets)
	spec.Config, spec.InlineConfig, spec.ConfigPatch = ref.Preset, ref.Config, ref.Patch
	return err
}

// readSpecFile loads one inline workload spec from a JSON file or stdin
// via the shared trace loader, so gpusimctl and gpusim accept exactly
// the same spec files.
func readSpecFile(path string) (*client.WorkloadSpec, error) {
	wl, err := trace.ReadSpecFile(path)
	if err != nil {
		return nil, err
	}
	return &wl, nil
}

// cmdConfigs lists the daemon's presets: names by default, full
// canonical Config JSON with -json (the raw GET /v1/configs payload —
// the starting point for authoring -config-file documents).
func cmdConfigs(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("configs", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the full canonical config of every preset as JSON")
	fs.Parse(args)
	configs, err := c.Configs(ctx)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(configs)
		return
	}
	for _, cfg := range configs {
		fmt.Println(cfg.Name)
	}
}

func cmdGet(ctx context.Context, c *client.Client, args []string, wait bool) {
	fs := flag.NewFlagSet("get", flag.ExitOnError)
	metricsOnly := fs.Bool("metrics", false, "print only the metrics JSON")
	asJSON := fs.Bool("json", false, "print the job as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("expected one job ID"))
	}
	j, err := c.Job(ctx, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	finishJob(ctx, c, j, wait, *metricsOnly, *asJSON)
}

// sparkRunes render a [0,1] utilization as one terminal cell.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline compresses a mean series into width cells, averaging the
// samples that fall into each cell.
func sparkline(means []float64, width int) string {
	if len(means) == 0 {
		return ""
	}
	if len(means) < width {
		width = len(means)
	}
	out := make([]rune, width)
	for i := 0; i < width; i++ {
		lo, hi := i*len(means)/width, (i+1)*len(means)/width
		if hi == lo {
			hi = lo + 1
		}
		var sum float64
		for _, v := range means[lo:hi] {
			sum += v
		}
		v := sum / float64(hi-lo)
		idx := int(v * float64(len(sparkRunes)))
		if idx >= len(sparkRunes) {
			idx = len(sparkRunes) - 1
		}
		if idx < 0 {
			idx = 0
		}
		out[i] = sparkRunes[idx]
	}
	return string(out)
}

// cmdProfile renders a finished Profile=true job's hierarchy bottleneck
// profile: one sparkline per gauge over the run's windows, then the
// per-level verdict table.
func cmdProfile(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw profile payload as JSON")
	width := fs.Int("width", 64, "sparkline width in cells")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("expected one job ID"))
	}
	jp, err := c.Profile(ctx, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(jp)
		return
	}
	p := jp.Profile
	fmt.Printf("profile %s  (%s on %s)\n", jp.JobID, jp.Bench, jp.Config)
	fmt.Printf("%d cycles in %d windows of %d cycles\n\n", p.Cycles, p.Windows, p.WindowCycles)
	for _, s := range p.Series {
		fmt.Printf("%-10s %-12s %s\n", s.Level, s.Gauge, sparkline(s.Mean, *width))
	}
	fmt.Printf("\n%-10s  %6s  %6s  %12s  %6s\n", "level", "mean", "peak", "saturated", "first")
	for _, lv := range p.Verdict.Levels {
		first := "-"
		if lv.FirstSaturatedWindow >= 0 {
			first = fmt.Sprintf("w%d", lv.FirstSaturatedWindow)
		}
		marker := " "
		if lv.Level == p.Verdict.Bottleneck {
			marker = "*"
		}
		fmt.Printf("%s%-9s  %5.1f%%  %5.1f%%  %7d wins  %6s\n",
			marker, lv.Level, 100*lv.MeanUtilization, 100*lv.PeakUtilization, lv.SaturatedWindows, first)
	}
	fmt.Printf("\nbottleneck: %s — %s (threshold %.0f%%)\n",
		p.Verdict.Bottleneck, p.Verdict.Reason, 100*p.Verdict.Threshold)
}

// cmdTrace renders a job's lifecycle span timeline: one row per span
// with wall-clock durations and attributes (cache tier, errors).
func cmdTrace(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the raw trace payload as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("expected one job ID"))
	}
	tr, err := c.Trace(ctx, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(tr)
		return
	}
	fmt.Printf("trace %s", tr.JobID)
	if tr.TraceID != "" {
		fmt.Printf("  traceId=%s", tr.TraceID)
	}
	fmt.Println()
	for _, sp := range tr.Spans {
		dur := "open"
		if sp.End != nil {
			dur = sp.End.Sub(sp.Start).Round(time.Microsecond).String()
		}
		fmt.Printf("  %-10s  %s  %10s", sp.Name, sp.Start.Format("15:04:05.000"), dur)
		keys := make([]string, 0, len(sp.Attrs))
		for k := range sp.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %s=%s", k, sp.Attrs[k])
		}
		fmt.Println()
	}
}

func cmdCancel(ctx context.Context, c *client.Client, args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("expected one job ID"))
	}
	j, err := c.Cancel(ctx, args[0])
	if err != nil {
		fatal(err)
	}
	printJob(j)
}

func cmdList(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	state := fs.String("state", "", "only jobs in this state (queued|running|done|failed|canceled)")
	limit := fs.Int("limit", 0, "page size (0 = everything in one page)")
	pageToken := fs.String("page-token", "", "resume a paged listing after a previous page's token")
	asJSON := fs.Bool("json", false, "print the page as JSON (includes nextPageToken)")
	fs.Parse(args)
	list, err := c.ListJobs(ctx, client.ListOptions{
		State:     client.JobState(*state),
		Limit:     *limit,
		PageToken: *pageToken,
	})
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(list)
		return
	}
	for i := range list.Jobs {
		printJob(&list.Jobs[i])
	}
	if list.NextPageToken != "" {
		stateFlag := ""
		if *state != "" {
			stateFlag = " -state " + *state
		}
		fmt.Printf("next page: gpusimctl list%s -limit %d -page-token %s\n", stateFlag, *limit, list.NextPageToken)
	}
}

func cmdSweep(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	configs := fs.String("configs", "", "comma-separated preset names")
	var cfgFiles cliutil.StringList
	fs.Var(&cfgFiles, "config-file", "path to a config or patch JSON to add to the config axis (repeatable)")
	var knobs cliutil.StringList
	fs.Var(&knobs, "knob", "knob axis path=v1,v2,...: add every -configs preset set at each point of the knobs' cross product (repeatable)")
	benches := fs.String("benches", "", "comma-separated benchmarks (default: all, unless -spec is given)")
	var specs cliutil.StringList
	fs.Var(&specs, "spec", "path to an inline workload spec JSON (repeatable)")
	wait := fs.Bool("wait", false, "block until every job reaches a terminal state")
	fs.Parse(args)
	req := client.SweepRequest{Configs: cliutil.SplitCSV(*configs)}
	if len(req.Configs) == 0 && (len(cfgFiles) == 0 || len(knobs) > 0) {
		fatal(fmt.Errorf("sweep: -configs is required, unless -config-file is given without -knob"))
	}
	for _, path := range cfgFiles {
		cfg, patch, err := config.ReadConfigFile(path)
		if err != nil {
			fatal(err)
		}
		if cfg != nil {
			req.InlineConfigs = append(req.InlineConfigs, *cfg)
		} else {
			req.ConfigPatches = append(req.ConfigPatches, *patch)
		}
	}
	if len(knobs) > 0 {
		// -knob sweeps mitigations against their unpatched bases: each
		// -configs preset, set at each knob point, is one more column.
		points, err := cliutil.KnobPoints(knobs)
		if err != nil {
			fatal(fmt.Errorf("sweep: %w", err))
		}
		for _, base := range req.Configs {
			for _, sets := range points {
				ref, err := cliutil.ResolveConfigFlags(base, "", sets)
				if err != nil {
					fatal(err)
				}
				req.InlineConfigs = append(req.InlineConfigs, *ref.Config)
			}
		}
	}
	for _, path := range specs {
		wl, err := readSpecFile(path)
		if err != nil {
			fatal(err)
		}
		req.InlineSpecs = append(req.InlineSpecs, *wl)
	}
	switch {
	case *benches != "":
		req.Benches = cliutil.SplitCSV(*benches)
	case len(req.InlineSpecs) == 0:
		all, err := c.Benchmarks(ctx)
		if err != nil {
			fatal(err)
		}
		req.Benches = all
	}
	resp, err := c.Sweep(ctx, req)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("sweep %s: %d cells requested, %d deduplicated, %d jobs\n",
		resp.ID, resp.Requested, resp.Deduped, len(resp.Jobs))
	jobs := resp.Jobs
	if *wait {
		// One wait on the sweep resource replaces per-job polling: the
		// daemon (or coordinator) long-polls the aggregate and returns
		// the merged speedup table with the final state.
		sw, err := c.WaitSweep(ctx, resp.ID, 0)
		if err != nil {
			fatal(err)
		}
		jobs = sw.Jobs
		defer printSpeedups(sw)
	}
	failed := 0
	for i := range jobs {
		printJob(&jobs[i])
		if jobs[i].State == client.JobFailed {
			failed++
		}
	}
	if failed > 0 {
		fatal(fmt.Errorf("%d job(s) failed", failed))
	}
}

// printSpeedups renders a completed sweep's merged speedup grid, one
// row per workload, relative to the first configuration column.
func printSpeedups(sw *client.Sweep) {
	if sw.Speedups == nil {
		return
	}
	sp := sw.Speedups
	fmt.Printf("speedups vs %s:\n", sp.Configs[0])
	fmt.Printf("%-12s", "")
	for _, cfg := range sp.Configs {
		fmt.Printf("  %12s", cfg)
	}
	fmt.Println()
	for w, name := range sp.Workloads {
		fmt.Printf("%-12s", name)
		for c := range sp.Configs {
			fmt.Printf("  %12.3f", sp.Cells[w][c])
		}
		fmt.Println()
	}
	// The cost of each configuration column, versus the base column, so
	// the table reads as speedup-per-mm² at a glance.
	if len(sp.AreaMM2) == len(sp.Configs) {
		fmt.Printf("%-12s", "area mm²")
		for c := range sp.Configs {
			fmt.Printf("  %12.2f", sp.AreaMM2[c])
		}
		fmt.Println()
	}
	if len(sp.OverheadFrac) == len(sp.Configs) {
		fmt.Printf("%-12s", "overhead")
		for c := range sp.Configs {
			fmt.Printf("  %11.2f%%", 100*sp.OverheadFrac[c])
		}
		fmt.Println()
	}
}

// cmdSweepStatus polls (or waits on) a sweep resource by ID.
func cmdSweepStatus(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("sweep-status", flag.ExitOnError)
	wait := fs.Bool("wait", false, "block until the sweep reaches a terminal state")
	asJSON := fs.Bool("json", false, "print the sweep resource as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("expected one sweep ID"))
	}
	var sw *client.Sweep
	var err error
	if *wait {
		sw, err = c.WaitSweep(ctx, fs.Arg(0), 0)
	} else {
		sw, err = c.GetSweep(ctx, fs.Arg(0))
	}
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(sw)
		return
	}
	fmt.Printf("sweep %s: %s (%d cells", sw.ID, sw.State, len(sw.Jobs))
	for _, state := range []client.JobState{client.JobQueued, client.JobRunning, client.JobDone, client.JobFailed, client.JobCanceled} {
		if n := sw.Counts[state]; n > 0 {
			fmt.Printf(", %d %s", n, state)
		}
	}
	fmt.Println(")")
	for i := range sw.Jobs {
		printJob(&sw.Jobs[i])
	}
	printSpeedups(sw)
	if sw.State == client.SweepFailed {
		os.Exit(1)
	}
}

// cmdCluster inspects a coordinator's worker fleet and drains or
// readmits workers.
func cmdCluster(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	drain := fs.String("drain", "", "drain this worker: move its cells and stop new placements")
	undrain := fs.String("undrain", "", "readmit a drained worker to placement")
	asJSON := fs.Bool("json", false, "print the worker table as JSON")
	fs.Parse(args)
	var cs *client.ClusterStatus
	var err error
	switch {
	case *drain != "" && *undrain != "":
		fatal(fmt.Errorf("-drain and -undrain are mutually exclusive"))
	case *drain != "":
		cs, err = c.Drain(ctx, *drain, true)
	case *undrain != "":
		cs, err = c.Drain(ctx, *undrain, false)
	default:
		cs, err = c.Cluster(ctx)
	}
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(cs)
		return
	}
	for _, w := range cs.Workers {
		state := "healthy"
		if !w.Healthy {
			state = fmt.Sprintf("unhealthy (%d misses)", w.ConsecutiveFailures)
		}
		if w.Draining {
			state += ", draining"
		}
		fmt.Printf("%s  %-24s  jobs=%d\n", w.Addr, state, w.Jobs)
	}
}

func cmdStats(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the stats as JSON")
	fs.Parse(args)
	st, err := c.Stats(ctx)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(st)
		return
	}
	fmt.Printf("workers      %d\n", st.Workers)
	fmt.Printf("queue        %d/%d\n", st.QueueDepth, st.QueueCap)
	fmt.Printf("simulated    %d\n", st.Scheduler.Simulated)
	fmt.Printf("sim cycles   %d\n", st.Scheduler.SimCycles)
	fmt.Printf("memo hits    %d\n", st.Scheduler.CacheHits)
	fmt.Printf("disk hits    %d\n", st.Scheduler.DiskHits)
	if st.CacheDir != "" {
		fmt.Printf("cache dir    %s (%d entries, %d bytes", st.CacheDir, st.DiskCacheEntries, st.DiskCacheBytes)
		if st.DiskCacheMaxBytes > 0 {
			fmt.Printf(" of %d", st.DiskCacheMaxBytes)
		}
		fmt.Println(")")
		if st.DiskCacheEvictions > 0 {
			fmt.Printf("evictions    %d\n", st.DiskCacheEvictions)
		}
	}
	if st.RateLimited > 0 {
		fmt.Printf("rate limited %d\n", st.RateLimited)
	}
	if st.QuotaDenied > 0 {
		fmt.Printf("quota denied %d\n", st.QuotaDenied)
	}
	for _, state := range []client.JobState{client.JobQueued, client.JobRunning, client.JobDone, client.JobFailed, client.JobCanceled} {
		if n := st.Jobs[state]; n > 0 {
			fmt.Printf("jobs %-8s %d\n", state, n)
		}
	}
}

// cmdExplore starts (or joins) a design-space exploration and renders
// its progress as a live round-by-round table until the search is done.
func cmdExplore(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("explore", flag.ExitOnError)
	benches := fs.String("bench", "", "comma-separated benchmarks to score candidates on")
	var specs cliutil.StringList
	fs.Var(&specs, "spec", "path to an inline workload spec JSON (repeatable)")
	base := fs.String("base", "", "base configuration preset (default baseline)")
	target := fs.Float64("target-speedup", 0, "objective: reach this speedup, minimizing area")
	minimize := fs.String("minimize", "", "with -target-speedup: quantity to minimize (only \"area\")")
	budget := fs.Float64("area-budget", 0, "objective: stay under this area in mm², maximizing speedup")
	maximize := fs.String("maximize", "", "with -area-budget: quantity to maximize (only \"speedup\")")
	var knobs cliutil.StringList
	fs.Var(&knobs, "knob", "custom lattice axis path=v1,v2,... (repeatable; default: the Table III ladder)")
	maxRounds := fs.Int("max-rounds", 0, "refinement-round cap (default 8)")
	wait := fs.Bool("wait", true, "follow the search round by round until it is done")
	poll := fs.Duration("poll", 500*time.Millisecond, "progress poll interval for -wait")
	asJSON := fs.Bool("json", false, "print the final exploration resource as JSON")
	fs.Parse(args)

	req := client.ExploreRequest{
		Benchmarks: cliutil.SplitCSV(*benches),
		Base:       *base,
		Objective: client.ExploreObjective{
			TargetSpeedup: *target,
			Minimize:      *minimize,
			AreaBudgetMM2: *budget,
			Maximize:      *maximize,
		},
		MaxRounds: *maxRounds,
	}
	for _, path := range specs {
		wl, err := readSpecFile(path)
		if err != nil {
			fatal(err)
		}
		req.InlineSpecs = append(req.InlineSpecs, *wl)
	}
	var err error
	if req.Knobs, err = cliutil.ParseKnobs(knobs); err != nil {
		fatal(fmt.Errorf("explore: %w", err))
	}
	ex, err := c.Explore(ctx, req)
	if err != nil {
		fatal(err)
	}
	if !*wait {
		if *asJSON {
			printJSON(ex)
			return
		}
		fmt.Printf("exploration %s: %s\n", ex.ID, ex.State)
		return
	}
	finishExploration(ctx, c, ex, true, *poll, *asJSON)
}

// finishExploration prints an exploration's completed rounds, each
// exactly once, following it to its terminal state when follow is set.
// A terminal exploration then gets its frontier and recommendation; one
// still running (not followed) gets its state.
func finishExploration(ctx context.Context, c *client.Client, ex *client.Exploration, follow bool, poll time.Duration, asJSON bool) {
	printed := 0
	header := false
	render := func(ex *client.Exploration) {
		if asJSON {
			return
		}
		if !header {
			fmt.Printf("exploration %s: strategy=%s base=%s grid=%d workloads=%v\n",
				ex.ID, ex.Strategy, ex.Base, ex.GridSize, ex.Workloads)
			fmt.Printf("%-10s  %7s  %13s  %10s  %9s\n", "round", "probes", "best speedup", "best area", "feasible")
			header = true
		}
		for ; printed < len(ex.Rounds); printed++ {
			r := ex.Rounds[printed]
			feas := "no"
			if r.Feasible {
				feas = "yes"
			}
			fmt.Printf("%-10s  %7d  %12.4f×  %8.2fmm²  %9s\n", r.Label, r.Probes, r.BestSpeedup, r.BestAreaMM2, feas)
		}
	}
	render(ex)
	var err error
	for follow && !ex.State.Terminal() {
		select {
		case <-ctx.Done():
			fatal(ctx.Err())
		case <-time.After(poll):
		}
		if ex, err = c.GetExploration(ctx, ex.ID); err != nil {
			fatal(err)
		}
		render(ex)
	}
	render(ex)
	if !ex.State.Terminal() {
		fmt.Printf("\n%s: %d probes so far of a %d-point grid\n", ex.State, ex.Probes, ex.GridSize)
		return
	}
	if asJSON {
		printJSON(ex)
		if ex.State == client.ExplorationFailed {
			os.Exit(1)
		}
		return
	}
	if ex.State == client.ExplorationFailed {
		fatal(fmt.Errorf("exploration %s failed: %s", ex.ID, ex.Error))
	}
	fmt.Printf("\n%d probes of a %d-point grid (%.4f%%); tiers: %d simulated, %d memo, %d disk\n",
		ex.Probes, ex.GridSize, 100*float64(ex.Probes)/float64(ex.GridSize),
		ex.Tiers.Simulated, ex.Tiers.Memo, ex.Tiers.Disk)
	fmt.Println("\npareto frontier:")
	fmt.Printf("  %9s  %9s  %8s  %s\n", "speedup", "area mm²", "overhead", "sets")
	for _, p := range ex.Frontier {
		fmt.Printf("  %8.4f×  %9.2f  %7.2f%%  %s\n", p.Speedup, p.AreaMM2, 100*p.OverheadFrac, setsLabel(p.Sets))
	}
	if ex.Recommended != nil {
		verdict := "meets the objective"
		if !ex.Feasible {
			verdict = "closest point — objective NOT met"
		}
		r := ex.Recommended
		fmt.Printf("\nrecommended (%s): %.4f× at %.2f mm² (%.2f%% overhead)\n",
			verdict, r.Speedup, r.AreaMM2, 100*r.OverheadFrac)
		for _, s := range r.Sets {
			fmt.Printf("  -set %s\n", s)
		}
	}
	if !ex.Feasible {
		os.Exit(1)
	}
}

func setsLabel(sets []string) string {
	if len(sets) == 0 {
		return "(base)"
	}
	return strings.Join(sets, " ")
}

// cmdExploreStatus prints an exploration resource by ID once, or
// follows it to the end with -wait.
func cmdExploreStatus(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("explore-status", flag.ExitOnError)
	wait := fs.Bool("wait", false, "follow the search until it reaches a terminal state")
	poll := fs.Duration("poll", 500*time.Millisecond, "progress poll interval for -wait")
	asJSON := fs.Bool("json", false, "print the exploration resource as JSON")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("expected one exploration ID"))
	}
	ex, err := c.GetExploration(ctx, fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	if !*wait && *asJSON {
		printJSON(ex)
		return
	}
	finishExploration(ctx, c, ex, *wait, *poll, *asJSON)
}

// cmdKnobs renders the knob-space model: every dotted Set path with its
// type, bounds and baseline value.
func cmdKnobs(ctx context.Context, c *client.Client, args []string) {
	fs := flag.NewFlagSet("knobs", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "print the knob list as JSON")
	fs.Parse(args)
	knobs, err := c.Knobs(ctx)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		printJSON(knobs)
		return
	}
	fmt.Printf("%-28s  %-6s  %12s  %12s  %s\n", "path", "type", "min", "max", "baseline")
	for _, k := range knobs {
		minS, maxS := "-", "-"
		if k.Type == "int" || k.Type == "float" {
			minS = strconv.FormatFloat(k.Min, 'g', -1, 64)
			maxS = "unbounded"
			if k.Max != 0 {
				maxS = strconv.FormatFloat(k.Max, 'g', -1, 64)
			}
		}
		fmt.Printf("%-28s  %-6s  %12s  %12s  %s\n", k.Path, k.Type, minS, maxS, k.Baseline)
	}
}

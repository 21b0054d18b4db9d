package main

import (
	"bytes"
	"fmt"
	"math"
	"syscall"
	"time"

	"gpumembw/internal/exp"
)

// reportSections is the subset of the paper's report the workload
// renders: every section fed by the baseline row plus Table II, 57
// simulated cells behind about 190 memo hits. The input is the paper's
// fixed one, so it does not depend on the seed.
var reportSections = []string{"fig1", "tableII", "fig4", "fig5", "fig7", "fig8", "fig9"}

// reportWarm is how many warm requests follow each cold one.
const reportWarm = 30

type reportWorkload struct {
	wantText, wantJSON []byte
}

func setupReport(e *env) (*reportWorkload, error) {
	w := &reportWorkload{}
	if !e.updateGoldens {
		var err error
		if w.wantText, w.wantJSON, err = loadReportGoldens(); err != nil {
			return nil, err
		}
		if len(w.wantText) == 0 {
			return nil, fmt.Errorf("no report golden (run with -update-goldens)")
		}
	}
	// Warm-up: a throwaway scheduler simulates the first cells of the
	// report and renders the sections that need no simulation, so the
	// simulator, the worker pool and the renderers have all run once.
	s := exp.NewScheduler(exp.WithWorkers(e.nproc))
	if err := s.RunJobs(exp.JobsFor(reportSections)[:2*e.nproc]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if _, _, err := render(s, []string{"tableI", "tableIII", "area"}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// render collects the sections and renders them as text and as JSON.
func render(s *exp.Scheduler, sections []string) (text, js []byte, err error) {
	res, err := s.Collect(sections)
	if err != nil {
		return nil, nil, err
	}
	return renderResults(res)
}

func renderResults(res *exp.Results) (text, js []byte, err error) {
	var tb, jb bytes.Buffer
	res.WriteText(&tb)
	if err := res.WriteJSON(&jb); err != nil {
		return nil, nil, err
	}
	return tb.Bytes(), jb.Bytes(), nil
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// reportPass is one fresh scheduler taken from creation to rendered bytes,
// then asked again while warm.
type reportPass struct {
	coldS, collectMs, renderMs, busy float64
	warmMs                           []float64
	stats                            exp.Stats
	mape                             float64
}

func (w *reportWorkload) pass(e *env, rec *recorder, tag string) (reportPass, bool) {
	var p reportPass
	e.res.attempt(1 + reportWarm)
	req := "report#" + tag
	root := rec.begin(0, req, "report")
	defer rec.end(root)

	start := time.Now()
	cpu0 := cpuSeconds()
	s := exp.NewScheduler(exp.WithWorkers(e.nproc))
	id := rec.begin(root, req, "exp.RunJobs")
	err := s.RunJobs(exp.JobsFor(reportSections))
	rec.end(id)
	p.busy = (cpuSeconds() - cpu0) / (float64(e.nproc) * time.Since(start).Seconds())
	if err != nil {
		e.res.fail("report %s: %v", tag, err)
		return p, false
	}
	t := time.Now()
	id = rec.begin(root, req, "exp.Collect")
	res, err := s.Collect(reportSections)
	rec.end(id)
	p.collectMs = time.Since(t).Seconds() * 1e3
	if err != nil {
		e.res.fail("report %s: %v", tag, err)
		return p, false
	}
	t = time.Now()
	id = rec.begin(root, req, "exp.render")
	text, js, err := renderResults(res)
	rec.end(id)
	p.renderMs = time.Since(t).Seconds() * 1e3
	p.coldS = time.Since(start).Seconds()
	if err != nil {
		e.res.fail("report %s: %v", tag, err)
		return p, false
	}
	p.stats = res.Engine
	p.mape = tableIIMape(res)

	if e.updateGoldens && w.wantText == nil {
		w.wantText, w.wantJSON = text, js
	}
	if !bytes.Equal(text, w.wantText) || !bytes.Equal(js, w.wantJSON) {
		e.res.fail("report %s: cold output differs from the golden (%d text bytes, %d JSON bytes)", tag, len(text), len(js))
	}

	e.calib.sample()
	// The warm request is served by the memo alone; its JSON may differ
	// from the cold one in the engine's hit counters and nowhere else.
	for i := 0; i < reportWarm; i++ {
		t := time.Now()
		wres, err := s.Collect(reportSections)
		var wtext []byte
		if err == nil {
			wtext, _, err = renderResults(wres)
		}
		p.warmMs = append(p.warmMs, time.Since(t).Seconds()*1e3)
		if err != nil {
			e.res.fail("report %s warm: %v", tag, err)
			continue
		}
		wres.Engine = res.Engine
		if _, wjs, err := renderResults(wres); err != nil || !bytes.Equal(wtext, w.wantText) || !bytes.Equal(wjs, w.wantJSON) {
			e.res.fail("report %s: warm output differs from the cold one", tag)
		}
		if st := s.Stats(); st.Simulated != p.stats.Simulated {
			e.res.fail("report %s: warm request simulated %d cells", tag, st.Simulated-p.stats.Simulated)
		}
	}
	return p, true
}

// tableIIMape is the model's one accuracy figure: the mean absolute
// percentage error of the simulated P-inf and P-dram speedups against the
// paper's Table II, the only reference results the repository holds.
func tableIIMape(res *exp.Results) float64 {
	var errSum float64
	var n int
	for _, row := range res.TableII {
		errSum += math.Abs(row.PInf-row.PaperPInf)/row.PaperPInf + math.Abs(row.PDRAM-row.PaperPDRAM)/row.PaperPDRAM
		n += 2
	}
	return 100 * ratio(errSum, float64(n))
}

func (w *reportWorkload) run(e *env) {
	var passes []reportPass
	e.calib.sample()
	start := time.Now()
	for i := 0; i < 2 || time.Since(start).Seconds() < e.seconds; i++ {
		rec := e.rec
		if i%2 == 1 {
			rec = nil
		}
		p, ok := w.pass(e, rec, fmt.Sprint(i))
		if ok {
			passes = append(passes, p)
		}
		e.calib.sample()
	}
	if len(passes) == 0 {
		return
	}
	if e.updateGoldens {
		if err := updateReportGoldens(w.wantText, w.wantJSON); err != nil {
			e.res.fail("update goldens: %v", err)
		}
	}
	pick := func(f func(reportPass) float64) []float64 {
		out := make([]float64, len(passes))
		for i, p := range passes {
			out[i] = f(p)
		}
		return out
	}
	var warm, opMs []float64
	for _, p := range passes {
		warm = append(warm, p.warmMs...)
		opMs = append(append(opMs, p.coldS*1e3), p.warmMs...)
	}
	cold := lowerQuartile(pick(func(p reportPass) float64 { return p.coldS }))
	warmMs := lowerQuartile(warm)
	opS := cold + reportWarm*warmMs/1e3
	first, n := passes[0], len(passes)
	for _, p := range passes[1:] {
		if p.stats != first.stats || p.mape != first.mape {
			e.res.fail("report: engine stats or Table II error differ between passes")
		}
	}

	r := e.res
	r.set("sim_kcycles_per_s", float64(first.stats.SimCycles)/cold/1e3, n)
	r.set("op_p50_ms", median(opMs), len(opMs))
	r.set("ops_per_s", (1+reportWarm)/opS, n)
	tail, _ := tailPercentile(opMs)
	r.set("op_tail_ms", tail, len(opMs))
	r.set("report_cold_s", cold, n)
	r.set("report_warm_ms", warmMs, len(warm))
	r.set("tableII_mape_pct", first.mape, len(reportSections))
	r.set("exp.simulated", float64(first.stats.Simulated), n)
	r.set("exp.memo_hits", float64(first.stats.CacheHits), n)
	r.set("core.sim_cycles", float64(first.stats.SimCycles), n)
	r.set("exp.worker_busy_frac", median(pick(func(p reportPass) float64 { return p.busy })), n)
	r.set("exp.collect_ms", median(pick(func(p reportPass) float64 { return p.collectMs })), n)
	r.set("exp.render_ms", median(pick(func(p reportPass) float64 { return p.renderMs })), n)
	if e.rec != nil {
		w.tracedExtras(e, passes)
	}
}

// tracedExtras reports the tracing overhead of the alternating passes and
// profiles one more cold pass.
func (w *reportWorkload) tracedExtras(e *env, passes []reportPass) {
	var traced, plain []float64
	for i, p := range passes {
		if i%2 == 0 {
			traced = append(traced, p.coldS)
		} else {
			plain = append(plain, p.coldS)
		}
	}
	if len(plain) > 0 {
		e.res.set("bench.trace_overhead_pct", 100*(lowerQuartile(traced)-lowerQuartile(plain))/lowerQuartile(plain), len(passes))
	}
	prof, err := cpuShares(func() { w.pass(e, nil, "pprof") })
	if err != nil {
		e.res.fail("cpu profile: %v", err)
		return
	}
	prof.report(e)
}

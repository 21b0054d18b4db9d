package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
	"gpumembw/internal/config"
	"gpumembw/internal/exp"
	"gpumembw/internal/explore"
	"gpumembw/internal/metrics"
	"gpumembw/internal/server"
	"gpumembw/internal/trace"
)

// serviceRounds is how often the closed-loop phases are repeated, each
// round getting 1/serviceRounds of every phase's share. A metric is the
// lower quartile over the rounds of its per-round medians, as a cell's
// cost is over its passes: the machine's speed wanders by a tenth within
// seconds, and one two-second window reads whatever it was then.
const serviceRounds = 4

// The shares of a run's time the timed phases of service-tiers get. The
// disk phase (every known cell once after each restart), the sweeps and
// the explorations are fixed work and take the rest.
const (
	shareCold      = 0.22
	shareMemo      = 0.10
	shareCoordCold = 0.07
	shareCoordMemo = 0.08
	shareMixed     = 0.25
)

// svcPatches are the config patches of the cell pool; index 0 is the
// baseline preset itself. sweepPatches are the eight columns of a sweep.
var (
	svcPatches = []string{"",
		`{"L1":{"MSHREntries":64}}`,
		`{"L2":{"MissQueueEntries":16,"AccessQueueEntries":16}}`,
		`{"DRAM":{"SchedQueueEntries":32}}`}
	sweepPatches = []string{
		`{"L1":{"MSHREntries":48}}`, `{"L1":{"MSHREntries":96}}`,
		`{"L1":{"MissQueueEntries":16}}`, `{"L1":{"MissQueueEntries":32}}`,
		`{"L2":{"MissQueueEntries":32}}`, `{"L2":{"ResponseQueueEntries":32}}`,
		`{"DRAM":{"SchedQueueEntries":64}}`, `{"Core":{"MemPipelineWidth":20}}`}
)

func patchOf(delta string) *config.Patch {
	return &config.Patch{Base: "baseline", Delta: json.RawMessage(delta)}
}

// svcCell is one cell of the service pool: a small inline spec on the
// baseline or one of the patches.
type svcCell struct {
	spec  trace.Spec
	patch string // "" = the baseline preset
	id    string // the cell's content address, which is also its job ID
}

func (c *svcCell) job() exp.Job {
	cref := exp.PresetRef("baseline")
	if c.patch != "" {
		cref = exp.PatchRef(*patchOf(c.patch))
	}
	return exp.Job{Config: cref, Workload: exp.SpecRef(c.spec)}
}

func (c *svcCell) jobSpec() client.JobSpec {
	sp := c.spec
	js := client.JobSpec{InlineSpec: &sp}
	if c.patch == "" {
		js.Config = "baseline"
	} else {
		js.ConfigPatch = patchOf(c.patch)
	}
	return js
}

// poolShapes is how many distinct kernel shapes the pool cycles through.
const poolShapes = 64

// genSpec is the i-th inline spec of a seed's pool: 1-3 warps, 4-16
// iterations, one of the five address patterns, a few milliseconds to
// simulate. The kernel's shape depends on the index alone and repeats
// every poolShapes cells, so that every seed and every run length meets
// the same mix of work; the seed reseeds the address stream. Every spec
// diverts some loads to a shared region, which keeps the stream's seed
// live under every pattern, so distinct indices or seeds are distinct cells.
func genSpec(seed uint64, i int) trace.Spec {
	h := splitmix(uint64(i % poolShapes))
	r := func(n int) int {
		h = splitmix(h)
		return int(h % uint64(n))
	}
	return trace.Spec{
		Name: fmt.Sprintf("svc-%d", i), WarpsPerCore: 1 + r(3), Iters: 4 + r(13),
		LoadsPerIter: 1 + r(3), StoresPerIter: r(2), ALUPerIter: 2 + r(8), DepDist: r(3),
		Pattern: trace.Pattern(r(5)), LinesPerAccess: 1 + r(3), WorkingSetKB: 64 << r(4),
		SharedKB: 16, SharedFrac: 0.05 * float64(1+r(4)), Seed: splitmix(seed ^ splitmix(uint64(i)+1)),
	}
}

// genCell is the i-th cell of the pool.
func genCell(seed uint64, i int) *svcCell {
	c := &svcCell{spec: genSpec(seed, i), patch: svcPatches[i%len(svcPatches)]}
	c.id = c.job().CellID()
	return c
}

// Pool index ranges outside the one the closed-loop phases count up from
// 0: the sweeps and explorations take fixed ranges, so that they meet the
// same kernel shapes on every run however many cells the phases before
// them got through.
const (
	warmupBase  = 1 << 30
	sweepBase   = 1 << 29
	exploreBase = 1 << 28
)

// opKind is one operation of the mixed phase.
type opKind uint8

const (
	opResubmit opKind = iota
	opNewCell
	opGetJob
	opStats
	opList
)

// mixedOp is the k-th operation of a seed's mixed phase: 60 % resubmit,
// 20 % new cell, 10 % GET job, 5 % stats, 5 % list. pick selects the known
// cell a resubmit or GET addresses.
func mixedOp(seed uint64, k int) (kind opKind, pick uint64) {
	h := splitmix(seed ^ 0x6d69786564 ^ splitmix(uint64(k)))
	switch p := h % 100; {
	case p < 60:
		kind = opResubmit
	case p < 80:
		kind = opNewCell
	case p < 90:
		kind = opGetJob
	case p < 95:
		kind = opStats
	default:
		kind = opList
	}
	return kind, splitmix(h)
}

// daemon is one in-process gpusimd (or coordinator) behind a loopback
// listener.
type daemon struct {
	url      string
	http     *http.Server
	shutdown func(context.Context) error
}

func serve(h http.Handler, shutdown func(context.Context) error) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), http: &http.Server{Handler: h}, shutdown: shutdown}
	go d.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed from stop
	return d, nil
}

func startServer(opts server.Options) (*daemon, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	return serve(srv.Handler(), srv.Shutdown)
}

// stop drains the daemon: the program's own Shutdown first (workers and
// cache), then the listener.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.shutdown(ctx)
	return errors.Join(err, d.http.Shutdown(ctx))
}

// serviceWorkload is the state of a service-tiers run.
type serviceWorkload struct {
	e        *env
	hc       *http.Client
	cacheDir string
	main     *daemon
	c        *client.Client

	next   int                 // next unused pool index
	want   map[string]string   // cell ID -> sha256 of the first Metrics JSON seen for it
	cells  map[string]*svcCell // every cell submitted anywhere
	known  []*svcCell          // cells the main daemon's cache dir holds
	e4, e5 int
	e429   int

	lat   map[string][]float64 // pooled latencies per phase, ns
	round map[string][]float64 // one value per round and metric
}

func setupService(e *env) (*serviceWorkload, error) {
	w := &serviceWorkload{e: e, cacheDir: filepath.Join(e.tmp, "cache"),
		want: make(map[string]string), cells: make(map[string]*svcCell),
		lat: make(map[string][]float64), round: make(map[string][]float64)}
	// One load generator with one client (see closedLoop), so one connection.
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var err error
	if w.main, err = startServer(server.Options{Workers: e.nproc, CacheDir: w.cacheDir}); err != nil {
		return nil, err
	}
	w.c = client.New(w.main.url, client.WithHTTPClient(w.hc))
	// Warm-up: cells from a pool index range no phase uses go through
	// every tier of the path once.
	ctx := context.Background()
	for i := 0; i < poolShapes; i++ {
		c := genCell(e.seed, warmupBase+i)
		for rep := 0; rep < 2; rep++ {
			if j, err := w.c.Run(ctx, c.jobSpec(), 0); err != nil || j.State != api.JobDone {
				w.close()
				return nil, fmt.Errorf("warm-up submit: %v (job %+v)", err, j)
			}
		}
	}
	return w, nil
}

func (w *serviceWorkload) close() {
	if w.main != nil {
		w.main.stop() //nolint:errcheck // teardown
		w.main = nil
	}
	w.hc.CloseIdleConnections()
}

// fresh returns the next unused cell of the pool.
func (w *serviceWorkload) fresh() *svcCell {
	c := genCell(w.e.seed, w.next)
	w.next++
	if _, dup := w.cells[c.id]; dup {
		w.e.res.fail("pool: cell %s generated twice", c.id)
	}
	w.cells[c.id] = c
	return c
}

// classify counts an API error by status class.
func (w *serviceWorkload) classify(err error) {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		return
	}
	switch {
	case apiErr.StatusCode == http.StatusTooManyRequests:
		w.e429++
	case apiErr.StatusCode >= 500:
		w.e5++
	case apiErr.StatusCode >= 400:
		w.e4++
	}
}

// checkJob verifies one terminal job: it is done, it carries the cell's
// content address, and its metrics are byte-identical to the first result
// seen for that cell on any tier or daemon.
func (w *serviceWorkload) checkJob(what string, c *svcCell, j *client.Job, err error) bool {
	switch {
	case err != nil:
		w.classify(err)
		w.e.res.fail("%s %s: %v", what, c.id, err)
		return false
	case j.State != api.JobDone || j.Metrics == nil:
		w.e.res.fail("%s %s: state %s error %q", what, c.id, j.State, j.Error)
		return false
	case j.ID != c.id:
		w.e.res.fail("%s: job ID %s, want the cell ID %s", what, j.ID, c.id)
		return false
	}
	data, err := json.Marshal(j.Metrics)
	if err != nil {
		w.e.res.fail("%s %s: %v", what, c.id, err)
		return false
	}
	sum := sha256.Sum256(data)
	hash := hex.EncodeToString(sum[:])
	if first, ok := w.want[c.id]; ok && first != hash {
		w.e.res.fail("%s %s: metrics differ from the cell's first result", what, c.id)
		return false
	}
	w.want[c.id] = hash
	return true
}

// opResult is one submit-and-wait: the round trip in nanoseconds, the
// terminal job, whether every check on it passed, and, for a traced op
// that had to wait, what attaching the server's own spans needs.
type opResult struct {
	id       string
	ns       float64
	job      *client.Job
	ok       bool
	wait     int // the client.Wait span, 0 if there was none
	from, to time.Time
}

// submitWait is the service op: submit a cell, then wait for its terminal
// state on the ?wait= long poll.
func (w *serviceWorkload) submitWait(c *client.Client, rec *recorder, what string, cell *svcCell) opResult {
	ctx := context.Background()
	w.e.res.attempt(1)
	start := time.Now()
	root := rec.begin(0, cell.id, "op")
	id := rec.begin(root, cell.id, "client.Submit")
	j, err := c.Submit(ctx, cell.jobSpec())
	rec.end(id)
	res := opResult{id: cell.id, from: time.Now()}
	if err == nil && !j.State.Terminal() {
		res.wait = rec.begin(root, cell.id, "client.Wait")
		j, err = c.Wait(ctx, j.ID, 0)
		rec.end(res.wait)
	}
	rec.end(root)
	res.to = time.Now()
	res.ns, res.job = float64(res.to.Sub(start).Nanoseconds()), j
	res.ok = w.checkJob(what, cell, j, err)
	return res
}

// closedLoop runs op(0), op(1), ... one after the other — one client,
// which sends its next request when the last one completed — until the
// budget is spent or limit ops were made, and returns the wall time.
//
// One client, not one per CPU: the load generator shares the process and
// its CPUs with the daemons, and with as many clients as CPUs the same
// work read 10-15 % apart from run to run where one client reads 3 %
// apart. The daemons keep nproc workers, which sweeps and explorations fill.
func closedLoop(budget time.Duration, limit int, op func(k int)) time.Duration {
	start := time.Now()
	for k := 0; time.Since(start) < budget && (limit == 0 || k < limit); k++ {
		op(k)
	}
	return time.Since(start)
}

// recFor gives every second op of a traced run the recorder, so that the
// other half prices the tracing.
func (w *serviceWorkload) recFor(k int) *recorder {
	if k%2 == 0 {
		return w.e.rec
	}
	return nil
}

// slice is one round's part of a phase's share of the run.
func (w *serviceWorkload) slice(share float64) time.Duration {
	return time.Duration(share * w.e.seconds / serviceRounds * float64(time.Second))
}

func (w *serviceWorkload) stats(c *client.Client) exp.Stats {
	st, err := c.Stats(context.Background())
	if err != nil {
		w.e.res.fail("stats: %v", err)
		return exp.Stats{}
	}
	return st.Scheduler
}

func (w *serviceWorkload) knownCell(pick uint64) *svcCell { return w.known[pick%uint64(len(w.known))] }

func ms(ns float64) float64 { return ns / 1e6 }

// phaseDone files one round's latencies of a phase: pooled for the tails,
// and their median as the round's value.
func (w *serviceWorkload) phaseDone(phase string, ns []float64) {
	if len(ns) > 0 {
		w.lat[phase] = append(w.lat[phase], ns...)
		w.round[phase] = append(w.round[phase], median(ns))
	}
}

// setLatency reports a phase's latency: the lower quartile over rounds of
// the round's median, in ms.
func (w *serviceWorkload) setLatency(metric, phase string) float64 {
	v := ms(lowerQuartile(w.round[phase]))
	w.e.res.set(metric, v, len(w.lat[phase]))
	return v
}

// upperQuartile is lowerQuartile for rates, where interference only ever
// takes away.
func upperQuartile(v []float64) float64 {
	neg := make([]float64, len(v))
	for i, x := range v {
		neg[i] = -x
	}
	return -lowerQuartile(neg)
}

func (w *serviceWorkload) run(e *env) {
	r := e.res
	co, err := w.startCoordinator()
	if err != nil {
		r.fail("coordinator: %v", err)
		return
	}
	defer co.stop()

	var mixedOps, mixedWall float64
	var boots []float64
	e.calib.sample()
	for round := 0; round < serviceRounds; round++ {
		w.coldSlice()
		w.memoSlice(round)
		if ns := w.restart(); ns > 0 {
			boots = append(boots, ns)
		}
		w.diskSlice()
		co.slices(w, round)
		lat, wall := w.mixedTraffic(w.slice(shareMixed), round)
		w.phaseDone("mixed", lat)
		mixedOps, mixedWall = mixedOps+float64(len(lat)), mixedWall+wall.Seconds()
		e.calib.sample()
	}
	if len(w.round["cold"]) == 0 || len(w.round["mixed"]) == 0 {
		r.fail("no round completed a cold cell and a mixed op")
		return
	}

	n := len(w.lat["cold"])
	r.set("sim_kcycles_per_s", upperQuartile(w.round["sim_kcycles_per_s"]), n)
	r.set("exp.simulated", median(w.round["simulated_per_cell"]), n)
	r.set("op_p50_ms", w.setLatency("submit_cold_p50_ms", "cold"), n)
	memo := w.setLatency("submit_memo_p50_ms", "memo")
	w.setLatency("submit_disk_p50_ms", "disk")
	coord := w.setLatency("submit_coord_p50_ms", "coord")
	w.setLatency("server.coord_cold_p50_ms", "coord-cold")
	r.set("server.coord_hop_ms", coord-memo, len(w.lat["coord"]))
	w.setLatency("svc_mixed_p50_ms", "mixed")
	r.set("svc_ops_per_s", mixedOps/mixedWall, int(mixedOps))
	r.set("ops_per_s", mixedOps/mixedWall, int(mixedOps))
	for metric, phase := range map[string]string{"server.submit_cold_p99_ms": "cold", "server.submit_memo_p99_ms": "memo", "op_tail_ms": "mixed"} {
		tail, _ := tailPercentile(w.lat[phase])
		r.set(metric, ms(tail), len(w.lat[phase]))
	}
	r.set("server.boot_warm_ms", ms(median(boots)), len(boots))
	if e.rec != nil {
		w.reportServerSpans()
		traced, plain := w.round["memo-traced"], w.round["memo-plain"]
		r.set("bench.trace_overhead_pct", 100*(lowerQuartile(traced)-lowerQuartile(plain))/lowerQuartile(plain), len(w.lat["memo"]))
	}

	w.sweepPhase()
	e.calib.sample()
	explorations := w.explorePhase()
	e.calib.sample()
	if e.rec != nil {
		w.scrapeMetrics()
		w.profileMixed()
	}
	w.verify(explorations)
	r.set("server.errors_4xx", float64(w.e4), r.Attempted)
	r.set("server.errors_5xx", float64(w.e5), r.Attempted)
	r.set("server.rate_limited", float64(w.e429), r.Attempted)
}

// coldSlice submits never-seen cells. Each simulates and is written to the
// disk cache; the scheduler must simulate exactly one cell per cell.
func (w *serviceWorkload) coldSlice() {
	var lat []float64
	var traced []opResult
	before, cells := w.stats(w.c), 0
	wall := closedLoop(w.slice(shareCold), 0, func(k int) {
		cell := w.fresh()
		res := w.submitWait(w.c, w.recFor(k), "cold", cell)
		if !res.ok {
			return
		}
		lat = append(lat, res.ns)
		w.known = append(w.known, cell)
		cells++
		if res.wait != 0 {
			traced = append(traced, res)
		}
	})
	after := w.stats(w.c)
	if cells == 0 {
		return
	}
	if after.Simulated-before.Simulated != int64(cells) {
		w.e.res.fail("cold phase: %d cells simulated for %d distinct cells", after.Simulated-before.Simulated, cells)
	}
	w.phaseDone("cold", lat)
	cycles := float64(after.SimCycles - before.SimCycles)
	w.round["simulated_per_cell"] = append(w.round["simulated_per_cell"], float64(after.Simulated-before.Simulated)/float64(cells))
	w.round["sim_kcycles_per_s"] = append(w.round["sim_kcycles_per_s"], cycles/wall.Seconds()/1e3)
	w.attachServerSpans(traced)
}

// memoSlice resubmits cells the daemon has in memory. Nothing may be
// simulated.
func (w *serviceWorkload) memoSlice(round int) {
	var plain, traced []float64
	before := w.stats(w.c)
	closedLoop(w.slice(shareMemo), 0, func(k int) {
		rec := w.recFor(k)
		cell := w.knownCell(splitmix(w.e.seed ^ 0x6d656d6f ^ uint64(round)<<32 ^ uint64(k)))
		if res := w.submitWait(w.c, rec, "memo", cell); !res.ok {
			return
		} else if rec != nil {
			traced = append(traced, res.ns)
		} else {
			plain = append(plain, res.ns)
		}
	})
	if st := w.stats(w.c); st.Simulated != before.Simulated {
		w.e.res.fail("memo phase simulated %d cells", st.Simulated-before.Simulated)
	}
	w.phaseDone("memo", append(append([]float64(nil), plain...), traced...))
	w.phaseDone("memo-plain", plain)
	w.phaseDone("memo-traced", traced)
}

// restart shuts the daemon down and boots a new one on the populated cache
// dir. It returns the boot time in nanoseconds.
func (w *serviceWorkload) restart() float64 {
	if err := w.main.stop(); err != nil {
		w.e.res.fail("shutdown: %v", err)
	}
	w.main = nil
	boot := time.Now()
	main, err := startServer(server.Options{Workers: w.e.nproc, CacheDir: w.cacheDir})
	if err != nil {
		w.e.res.fail("restart: %v", err)
		return 0
	}
	w.main, w.c = main, client.New(main.url, client.WithHTTPClient(w.hc))
	return float64(time.Since(boot).Nanoseconds())
}

// diskSlice touches every known cell once after the restart; each must
// come from the disk tier, and none may be simulated.
func (w *serviceWorkload) diskSlice() {
	if w.main == nil {
		return
	}
	var lat []float64
	for _, cell := range w.known {
		res := w.submitWait(w.c, nil, "disk", cell)
		if res.ok && res.job.Tier != exp.TierDisk {
			w.e.res.fail("disk phase: cell %s served by tier %q", cell.id, res.job.Tier)
		} else if res.ok {
			lat = append(lat, res.ns)
		}
	}
	if st := w.stats(w.c); st.Simulated != 0 {
		w.e.res.fail("disk phase simulated %d cells", st.Simulated)
	}
	w.phaseDone("disk", lat)
}

// attachServerSpans fetches, for every traced cold op, the queued and
// running spans the server recorded for the job, and files them under the
// op's client.Wait span, clipped to it. It also collects how long cold
// cells queued and ran, and what the round trip cost beyond that.
func (w *serviceWorkload) attachServerSpans(ops []opResult) {
	for _, op := range ops {
		tr, err := w.c.Trace(context.Background(), op.id)
		if err != nil {
			w.e.res.fail("trace %s: %v", op.id, err)
			continue
		}
		spent := 0.0
		for _, s := range tr.Spans {
			if s.End == nil || (s.Name != "queued" && s.Name != "running") {
				continue
			}
			d := float64(s.End.Sub(s.Start).Nanoseconds())
			spent += d
			w.lat["server."+s.Name] = append(w.lat["server."+s.Name], d)
			from, to := s.Start, *s.End
			if from.Before(op.from) {
				from = op.from
			}
			if to.After(op.to) {
				to = op.to
			}
			if to.After(from) {
				w.e.rec.add(op.wait, op.id, "server."+s.Name, from, to)
			}
		}
		w.lat["server.overhead"] = append(w.lat["server.overhead"], op.ns-spent)
	}
}

func (w *serviceWorkload) reportServerSpans() {
	for metric, key := range map[string]string{"server.queue_wait_ms": "server.queued", "server.running_ms": "server.running", "server.overhead_ms": "server.overhead"} {
		w.e.res.set(metric, ms(median(w.lat[key])), len(w.lat[key]))
	}
}

// coordinator is a coordinator in front of two fresh workers, with the
// cells it has been given.
type coordinator struct {
	daemons []*daemon
	c       *client.Client
	cells   []*svcCell
}

func (w *serviceWorkload) startCoordinator() (*coordinator, error) {
	co := &coordinator{}
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := startServer(server.Options{Workers: max(1, w.e.nproc/2)})
		if err != nil {
			co.stop()
			return nil, err
		}
		co.daemons = append(co.daemons, d)
		addrs = append(addrs, d.url)
	}
	srv, err := server.NewCoordinator(server.CoordinatorOptions{Workers: addrs})
	if err != nil {
		co.stop()
		return nil, err
	}
	front, err := serve(srv.Handler(), srv.Shutdown)
	if err != nil {
		co.stop()
		return nil, err
	}
	co.daemons = append(co.daemons, front)
	co.c = client.New(front.url, client.WithHTTPClient(w.hc))
	return co, nil
}

// stop shuts the coordinator down first, then its workers.
func (co *coordinator) stop() {
	for i := len(co.daemons) - 1; i >= 0; i-- {
		co.daemons[i].stop() //nolint:errcheck // teardown
	}
}

// slices sends cold cells through the coordinator, then resubmits through
// the hop.
func (co *coordinator) slices(w *serviceWorkload, round int) {
	var cold, memo []float64
	before := w.stats(co.c)
	had := len(co.cells)
	closedLoop(w.slice(shareCoordCold), 0, func(int) {
		cell := w.fresh()
		if res := w.submitWait(co.c, nil, "coordinator cold", cell); res.ok {
			cold = append(cold, res.ns)
			co.cells = append(co.cells, cell)
		}
	})
	if len(co.cells) == 0 {
		return
	}
	after := w.stats(co.c)
	if after.Simulated-before.Simulated != int64(len(co.cells)-had) {
		w.e.res.fail("coordinator cold: %d cells simulated for %d distinct cells", after.Simulated-before.Simulated, len(co.cells)-had)
	}
	closedLoop(w.slice(shareCoordMemo), 0, func(k int) {
		cell := co.cells[splitmix(w.e.seed^0x636f6f7264^uint64(round)<<32^uint64(k))%uint64(len(co.cells))]
		if res := w.submitWait(co.c, nil, "coordinator resubmit", cell); res.ok {
			memo = append(memo, res.ns)
		}
	})
	if st := w.stats(co.c); st.Simulated != after.Simulated {
		w.e.res.fail("coordinator resubmits simulated %d cells", st.Simulated-after.Simulated)
	}
	w.phaseDone("coord-cold", cold)
	w.phaseDone("coord", memo)
}

// mixedTraffic runs the traffic mix against the restarted daemon for the
// given time and returns the op latencies and the wall time.
func (w *serviceWorkload) mixedTraffic(budget time.Duration, round int) ([]float64, time.Duration) {
	ctx, r := context.Background(), w.e.res
	var lat []float64
	wall := closedLoop(budget, 0, func(k int) {
		kind, pick := mixedOp(w.e.seed, round<<20|k)
		switch kind {
		case opResubmit:
			if res := w.submitWait(w.c, nil, "mixed resubmit", w.knownCell(pick)); res.ok {
				lat = append(lat, res.ns)
			}
			return
		case opNewCell:
			cell := w.fresh()
			if res := w.submitWait(w.c, nil, "mixed new", cell); res.ok {
				lat = append(lat, res.ns)
				w.known = append(w.known, cell)
			}
			return
		}
		r.attempt(1)
		start := time.Now()
		var err error
		switch kind {
		case opGetJob:
			cell := w.knownCell(pick)
			var j *client.Job
			if j, err = w.c.Job(ctx, cell.id); err == nil && j.ID != cell.id {
				err = fmt.Errorf("job ID %s", j.ID)
			}
		case opStats:
			_, err = w.c.Stats(ctx)
		case opList:
			var l *client.JobList
			if l, err = w.c.ListJobs(ctx, client.ListOptions{Limit: 50}); err == nil && (len(l.Jobs) == 0 || len(l.Jobs) > 50) {
				err = fmt.Errorf("list returned %d jobs", len(l.Jobs))
			}
		}
		if err != nil {
			w.classify(err)
			r.fail("mixed op %d: %v", kind, err)
			return
		}
		lat = append(lat, float64(time.Since(start).Nanoseconds()))
	})
	return lat, wall
}

// fixedReps is how often a sweep and an exploration are repeated, each
// time with new specs; the reported time is the lower quartile.
const fixedReps = 5

// sweepPhase posts sweeps of 8 patches x 8 new specs and waits for each,
// then one whose spec list repeats itself.
func (w *serviceWorkload) sweepPhase() {
	ctx, r := context.Background(), w.e.res
	var patches []client.ConfigPatch
	for _, p := range sweepPatches {
		patches = append(patches, *patchOf(p))
	}
	var times []float64
	var specs []trace.Spec
	for rep := 0; rep < fixedReps; rep++ {
		specs = specs[:0]
		for i := 0; i < 8; i++ {
			specs = append(specs, genSpec(w.e.seed, sweepBase+8*rep+i))
		}
		r.attempt(1)
		start := time.Now()
		resp, err := w.c.Sweep(ctx, client.SweepRequest{ConfigPatches: patches, InlineSpecs: specs})
		var sw *client.Sweep
		if err == nil {
			sw, err = w.c.WaitSweep(ctx, resp.ID, 0)
		}
		took := time.Since(start).Seconds()
		if err != nil || sw.State != api.SweepDone || len(sw.Jobs) != 64 {
			w.classify(err)
			r.fail("sweep %d: %v (%+v)", rep, err, sw)
			continue
		}
		times = append(times, took)
		for i := range sw.Jobs {
			j := &sw.Jobs[i]
			cell := &svcCell{spec: *j.Spec.InlineSpec, id: j.ID}
			if j.Spec.ConfigPatch != nil {
				cell.patch = string(j.Spec.ConfigPatch.Delta)
			}
			if want := cell.job().CellID(); want != j.ID {
				r.fail("sweep job %s: its spec hashes to cell %s", j.ID, want)
				continue
			}
			w.cells[cell.id] = cell
			r.attempt(1)
			w.checkJob("sweep cell", cell, j, nil)
		}
	}
	r.set("sweep64_s", lowerQuartile(times), len(times))

	// Each spec twice under two names: half of the requested cells are
	// twins of the other half, and all of them are already simulated.
	r.attempt(1)
	twice := append(append([]trace.Spec(nil), specs...), specs...)
	for i := range twice[len(specs):] {
		twice[len(specs)+i].Name += "-twin"
	}
	resp, err := w.c.Sweep(ctx, client.SweepRequest{ConfigPatches: patches, InlineSpecs: twice})
	if err != nil {
		w.classify(err)
		r.fail("twin sweep: %v", err)
		return
	}
	r.set("server.sweep_dedup_frac", ratio(float64(resp.Deduped), float64(resp.Requested)), resp.Requested)
}

// exploration is one finished search and the request that made it.
type exploration struct {
	req client.ExploreRequest
	got *client.Exploration
}

// explorePhase posts explorations, each over two new specs and a
// three-knob lattice, and waits for each.
func (w *serviceWorkload) explorePhase() []exploration {
	ctx, r := context.Background(), w.e.res
	var out []exploration
	var times []float64
	for rep := 0; rep < fixedReps; rep++ {
		req := client.ExploreRequest{
			Strategy:  "halving",
			Objective: client.ExploreObjective{TargetSpeedup: 1.05},
			MaxRounds: 3,
			Knobs: []client.ExploreKnob{
				{Path: "l1.mshr_entries", Values: []string{"32", "64", "128"}},
				{Path: "l2.miss_queue_entries", Values: []string{"8", "16", "32"}},
				{Path: "dram.sched_queue_entries", Values: []string{"16", "64"}},
			},
		}
		for i := 0; i < 2; i++ {
			req.InlineSpecs = append(req.InlineSpecs, genSpec(w.e.seed, exploreBase+2*rep+i))
		}
		r.attempt(1)
		start := time.Now()
		ex, err := w.c.Explore(ctx, req)
		if err == nil {
			ex, err = w.c.WaitExploration(ctx, ex.ID, 0)
		}
		took := time.Since(start).Seconds()
		if err != nil || ex.State != client.ExplorationDone {
			w.classify(err)
			r.fail("explore %d: %v (%+v)", rep, err, ex)
			continue
		}
		times = append(times, took)
		out = append(out, exploration{req, ex})
	}
	if len(out) > 0 {
		t := out[0].got.Tiers
		r.set("explore.probes", float64(out[0].got.Probes), len(out))
		r.set("explore.simulated_frac", ratio(float64(t.Simulated), float64(t.Simulated+t.Memo+t.Disk)), len(out))
	}
	r.set("explore_s", lowerQuartile(times), len(times))
	return out
}

// scrapeMetrics times GET /metrics with the strict parse a scraper does.
func (w *serviceWorkload) scrapeMetrics() {
	var took []float64
	for i := 0; i < 5; i++ {
		w.e.res.attempt(1)
		start := time.Now()
		resp, err := w.hc.Get(w.main.url + "/metrics")
		if err != nil {
			w.e.res.fail("scrape: %v", err)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			_, err = metrics.Parse(body)
		}
		if err != nil || resp.StatusCode != http.StatusOK {
			w.e.res.fail("scrape: status %d: %v", resp.StatusCode, err)
			return
		}
		took = append(took, float64(time.Since(start).Nanoseconds()))
	}
	w.e.res.set("metrics.scrape_ms", ms(median(took)), len(took))
}

// profileMixed samples the CPU while the mixed traffic runs once more.
func (w *serviceWorkload) profileMixed() {
	prof, err := cpuShares(func() {
		for t := time.Now(); time.Since(t) < profileFor; {
			w.mixedTraffic(time.Second, serviceRounds)
		}
	})
	if err != nil {
		w.e.res.fail("cpu profile: %v", err)
		return
	}
	prof.report(w.e)
}

// verify re-derives every result the daemons gave from an in-process
// scheduler: each cell's metrics must match byte for byte under the job's
// labels, and each exploration must reproduce its probe set and
// recommendation. The second in-process run of an exploration finds every
// probe memoized, so its time is the search's own overhead.
func (w *serviceWorkload) verify(explorations []exploration) {
	r := w.e.res
	s := exp.NewScheduler(exp.WithWorkers(w.e.nproc))
	ids := sortedKeys(w.want)
	jobs := make([]exp.Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, w.cells[id].job())
	}
	if err := s.RunJobs(jobs); err != nil {
		r.fail("verify: %v", err)
		return
	}
	for i, id := range ids {
		r.attempt(1)
		m, err := s.RunJob(jobs[i])
		if err != nil {
			r.fail("verify %s: %v", id, err)
			continue
		}
		m.Config, m.Benchmark = jobs[i].Config.Label(), jobs[i].Workload.Label()
		data, err := json.Marshal(&m)
		sum := sha256.Sum256(data)
		if err != nil || hex.EncodeToString(sum[:]) != w.want[id] {
			r.fail("verify %s: the daemon's metrics differ from an in-process scheduler's", id)
		}
	}

	var overhead []float64
	for _, x := range explorations {
		r.attempt(1)
		plan, err := explore.Compile(x.req)
		if err != nil {
			r.fail("verify exploration: %v", err)
			continue
		}
		var res *explore.Result
		for rep := 0; rep < 2 && err == nil; rep++ {
			start := time.Now()
			res, err = explore.Run(context.Background(), plan, explore.SchedulerEval(s), nil)
			if rep == 1 {
				overhead = append(overhead, float64(time.Since(start).Nanoseconds()))
			}
		}
		if err != nil {
			r.fail("verify exploration %s: %v", x.got.ID, err)
			continue
		}
		want := plan.Resource(plan.ID(), api.ExplorationDone, explore.Status{}, res, "")
		wantRec, _ := json.Marshal(want.Recommended)
		gotRec, _ := json.Marshal(x.got.Recommended)
		if want.ID != x.got.ID || want.ProbesDigest != x.got.ProbesDigest || want.Probes != x.got.Probes || string(wantRec) != string(gotRec) {
			r.fail("exploration %s: daemon and in-process search disagree (digest %s vs %s)", x.got.ID, x.got.ProbesDigest, want.ProbesDigest)
		}
	}
	r.set("explore.search_overhead_ms", ms(median(overhead)), len(overhead))
}

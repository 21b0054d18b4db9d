// Command gpusimd runs the simulator as a long-lived HTTP service: jobs
// are submitted asynchronously, identical (config, benchmark) cells are
// simulated once and shared across requests, and an optional disk cache
// persists results across restarts. See internal/server for the routes
// and client (or cmd/gpusimctl) for a typed way to talk to it.
//
// Usage:
//
//	gpusimd                              # listen on :8372, GOMAXPROCS workers
//	gpusimd -addr 127.0.0.1:9000 -j 4    # explicit listen address and workers
//	gpusimd -cache-dir /var/cache/gpusim # persist results across restarts
//	gpusimd -cache-max-bytes 64M         # bound the disk cache (LRU eviction)
//	gpusimd -max-queue 256               # bound the job queue (503 beyond it)
//	gpusimd -rate-limit 50 -rate-burst 100        # per-client 429 throttle
//	gpusimd -max-inflight-per-client 64           # per-client job quota
//
// Coordinator mode runs every cell on a fleet of workers instead of
// simulating locally — each -worker is a gpusimd base URL; a cell runs on
// the worker its content-addressed ID rendezvous-hashes to, so the same
// cell lands on the same worker from any entry point:
//
//	gpusimd -worker http://10.0.0.1:8372 -worker http://10.0.0.2:8372
//	gpusimd -worker ... -probe-interval 500ms -probe-fails 3
//	gpusimd -worker ... -cache-dir /var/cache/gpusim-coord  # restarts ask workers nothing for known cells
//
// A coordinator is the same daemon whose last cache tier is remote: it
// admits (-max-queue, -rate-limit, -rate-burst and -max-inflight-per-client
// bind at the entry point), tracks, lists and traces jobs itself, answers
// repeats from its own memo and -cache-dir, and adds GET /v1/cluster and
// POST /v1/cluster/drain. A worker's 429 delays a run instead of failing
// it; a 503 or an unhealthy worker moves its runs to the survivors (the
// simulator is deterministic, so placement never changes results). -j
// belongs to the workers: given with -worker it is an error.
//
// Operational state is scrapeable at GET /metrics (Prometheus text
// format) and GET /v1/stats (JSON); the two reconcile exactly when the
// daemon is quiescent. Structured logs (log/slog text format) stream to
// stderr: one event per job transition, tagged with the request's
// X-Trace-Id, and disk-cache I/O failures as WARN records. -debug-addr
// exposes net/http/pprof on a SEPARATE listener — bind it to localhost;
// never the public service port:
//
//	gpusimd -debug-addr 127.0.0.1:6060
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile
//
// SIGINT/SIGTERM trigger a graceful shutdown: new jobs, sweeps and
// explorations get 503, queued jobs are canceled, running explorations
// stop (their -cache-dir journals resume them on the next start),
// in-flight cells drain (up to 30s), and any -cpuprofile/-memprofile
// output is flushed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // -debug-addr listener only; never on the API mux
	"os"
	"time"

	"gpumembw/cmd/internal/cliutil"
	"gpumembw/internal/prof"
	"gpumembw/internal/server"
)

func main() {
	addr := flag.String("addr", ":8372", "listen address")
	workers := flag.Int("j", 0, "simulation workers (default GOMAXPROCS)")
	cacheDir := flag.String("cache-dir", "", "persist simulation results under this directory")
	cacheMax := flag.String("cache-max-bytes", "0", "bound the disk cache (K/M/G suffixes; 0 = unbounded); LRU entries are evicted beyond it")
	maxQueue := flag.Int("max-queue", server.DefaultMaxQueue, "bound on the job queue")
	rateLimit := flag.Float64("rate-limit", 0, "per-client mutating requests per second (0 = unlimited); excess gets 429 + Retry-After")
	rateBurst := flag.Int("rate-burst", 0, "token-bucket burst for -rate-limit (0 = max(1, ceil(rate)))")
	maxInflight := flag.Int("max-inflight-per-client", 0, "bound on one client's queued+running jobs (0 = unlimited); excess gets 429")
	quiet := flag.Bool("q", false, "suppress per-simulation progress on stderr")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this SEPARATE listener (bind to localhost; empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn, error")
	var workerAddrs cliutil.StringList
	flag.Var(&workerAddrs, "worker", "coordinator mode: shard cells across this gpusimd worker URL (repeatable)")
	probeInterval := flag.Duration("probe-interval", time.Second, "coordinator mode: worker /healthz probe period")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "coordinator mode: per-probe timeout")
	probeFails := flag.Int("probe-fails", 2, "coordinator mode: consecutive probe failures before a worker's cells move")
	profiles := prof.AddFlags()
	flag.Parse()

	cacheMaxBytes, err := cliutil.ParseBytes(*cacheMax)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusimd: -cache-max-bytes:", err)
		os.Exit(2)
	}

	if err := profiles.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer profiles.Stop()

	logger, err := newLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpusimd:", err)
		profiles.Exit(2)
	}
	startDebugListener(*debugAddr)

	opts := server.Options{
		Workers:              *workers,
		MaxQueue:             *maxQueue,
		CacheDir:             *cacheDir,
		CacheMaxBytes:        cacheMaxBytes,
		RateLimit:            *rateLimit,
		RateBurst:            *rateBurst,
		MaxInflightPerClient: *maxInflight,
		Logger:               logger,
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	var srv *server.Server
	if len(workerAddrs) > 0 {
		srv, err = server.NewCoordinator(server.CoordinatorOptions{
			Workers:       workerAddrs,
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			ProbeFails:    *probeFails,
			Options:       opts,
		})
	} else {
		srv, err = server.New(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		profiles.Exit(2)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	release := profiles.ExitOnSignal(func() {
		fmt.Fprintln(os.Stderr, "gpusimd: shutting down (draining in-flight cells)...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gpusimd:", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gpusimd:", err)
		}
		st := srv.Stats()
		fmt.Fprintf(os.Stderr, "gpusimd: drained (%d simulated, %d memo hits, %d disk hits)\n",
			st.Scheduler.Simulated, st.Scheduler.CacheHits, st.Scheduler.DiskHits)
	})
	defer release()

	runs := fmt.Sprintf("%d workers", srv.Stats().Workers)
	if len(workerAddrs) > 0 {
		runs = fmt.Sprintf("running cells on %d daemons, probe every %s, unhealthy after %d misses", len(workerAddrs), *probeInterval, *probeFails)
	}
	fmt.Fprintf(os.Stderr, "gpusimd: listening on %s (%s, queue %d", *addr, runs, *maxQueue)
	if *cacheDir != "" {
		fmt.Fprintf(os.Stderr, ", cache %s", *cacheDir)
		if cacheMaxBytes > 0 {
			fmt.Fprintf(os.Stderr, " capped at %d bytes", cacheMaxBytes)
		}
	}
	if *rateLimit > 0 {
		fmt.Fprintf(os.Stderr, ", rate limit %g/s", *rateLimit)
	}
	if *maxInflight > 0 {
		fmt.Fprintf(os.Stderr, ", per-client inflight %d", *maxInflight)
	}
	fmt.Fprintln(os.Stderr, ")")
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gpusimd:", err)
		profiles.Exit(1)
	}
	// ErrServerClosed means the signal handler initiated the shutdown —
	// the only path that closes the listener. Block until it finishes
	// flushing profiles and exits the process with the 128+signal status;
	// returning here would race it with a spurious status 0.
	select {}
}

// newLogger builds the daemon's structured logger: slog text format on
// stderr at the requested level.
func newLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: %w", level, err)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// startDebugListener serves net/http/pprof (registered on the default
// mux by the blank import) on its own listener, so profiling endpoints
// never share a port with the public API. No-op when addr is empty.
func startDebugListener(addr string) {
	if addr == "" {
		return
	}
	go func() {
		fmt.Fprintf(os.Stderr, "gpusimd: pprof debug listener on http://%s/debug/pprof/\n", addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintln(os.Stderr, "gpusimd: debug listener:", err)
		}
	}()
}

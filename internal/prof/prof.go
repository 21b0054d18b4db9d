// Package prof is the profiling harness shared by the command-line tools:
// every binary accepts -cpuprofile and -memprofile flags, so a performance
// regression anywhere in the cycle engine can be diagnosed with `go tool
// pprof` against the exact workload that exposed it.
//
// These flags cover one-shot runs that exit. For the long-lived daemon,
// prefer gpusimd's -debug-addr, which serves live net/http/pprof
// endpoints (CPU, heap, goroutine, block) on a separate localhost
// listener — no restart needed and nothing written to disk.
package prof

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
)

// Flags holds the destinations selected on the command line.
type Flags struct {
	cpuPath string
	memPath string

	mu      sync.Mutex // a signal-handler Stop can race the deferred one
	stopped bool
	cpuFile *os.File
}

// AddFlags registers -cpuprofile and -memprofile on the default flag set.
func AddFlags() *Flags {
	var f Flags
	flag.StringVar(&f.cpuPath, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&f.memPath, "memprofile", "", "write an allocation profile to this file on exit")
	return &f
}

// Start begins CPU profiling if requested. Call after flag.Parse.
func (f *Flags) Start() error {
	if f.cpuPath == "" {
		return nil
	}
	file, err := os.Create(f.cpuPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return err
	}
	f.cpuFile = file
	return nil
}

// ExitOnSignal installs a SIGINT/SIGTERM handler that runs cleanup (if
// non-nil), stops the profiles, and exits with the conventional 128+signal
// status. Without it, an interrupted run silently loses its -cpuprofile/
// -memprofile output: deferred Stop calls never run when the process dies
// on a signal. Long-lived commands pass a cleanup that drains in-flight
// work (gpusimd's graceful shutdown); one-shot commands pass nil.
// The returned function uninstalls the handler.
func (f *Flags) ExitOnSignal(cleanup func()) (release func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-ch
		if !ok {
			return
		}
		signal.Stop(ch)
		if cleanup != nil {
			cleanup()
		}
		code := 130 // 128 + SIGINT
		if sig == syscall.SIGTERM {
			code = 143
		}
		f.Exit(code)
	}()
	return func() {
		signal.Stop(ch)
		close(ch)
	}
}

// Exit stops the profiles and exits with code: the way out of a command
// once Start has run, since os.Exit skips the deferred Stop and would leave
// a failed run's -cpuprofile truncated.
func (f *Flags) Exit(code int) {
	f.Stop()
	os.Exit(code)
}

// Stop finishes the CPU profile and writes the heap profile. Call once the
// workload is done (defer-friendly: errors are reported on stderr because
// deferred calls run after the exit status is decided). Stop is idempotent
// and safe to call from a signal handler racing a deferred call.
func (f *Flags) Stop() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped {
		return
	}
	f.stopped = true
	if f.cpuFile != nil {
		pprof.StopCPUProfile()
		f.cpuFile.Close()
		f.cpuFile = nil
	}
	if f.memPath == "" {
		return
	}
	file, err := os.Create(f.memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	defer file.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(file); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

package server

import (
	"cmp"
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/obsv"
)

// cacheSchema versions the on-disk entry layout; entries written by an
// incompatible daemon are ignored (and overwritten on the next Put).
const cacheSchema = 1

// cacheEntry is one persisted simulation result. Like the scheduler's
// memo cache, the stored metrics carry the config label of whichever job
// simulated the cell first. SimVersion pins the cycle engine's behavior:
// entries written by a simulator whose output differs (core.SimVersion
// bumped) are treated as misses, so a reused -cache-dir can never serve
// metrics that a freshly built `gpusim -json` would not reproduce.
type cacheEntry struct {
	Schema     int           `json:"schema"`
	SimVersion string        `json:"simVersion"`
	Bench      string        `json:"bench"`
	Config     string        `json:"config"`
	Metrics    core.Metrics  `json:"metrics"`
	Profile    *obsv.Profile `json:"profile,omitempty"` // present only for profiled runs
}

// CacheStats is the disk cache's accounting snapshot, surfaced on
// GET /v1/stats and /metrics.
type CacheStats struct {
	// Entries is the number of persisted cells.
	Entries int
	// Bytes is the accounted payload size of all entries.
	Bytes int64
	// MaxBytes is the cache's size bound; 0 means unbounded.
	MaxBytes int64
	// Evictions counts entries the bound has evicted. Eviction never
	// changes results, only the cost of re-simulating an evicted cell.
	Evictions int64
}

// cacheRecord is the in-memory accounting for one spill file.
type cacheRecord struct {
	id   string
	size int64
}

// DirCache persists one JSON file per simulation cell, named by the
// cell's content hash, so a restarted daemon (same -cache-dir) serves
// previously simulated cells without re-simulating. It implements
// exp.ResultCache; I/O failures degrade to cache misses, reported once
// per operation as a WARN record on its logger. Pointing several workers
// at one directory on a shared volume gives a whole cluster a single cache
// namespace: entry writes are atomic temp-file + rename, so concurrent
// writers are safe, and an entry a peer wrote is adopted into this cache's
// accounting by the first hit on it.
//
// When maxBytes > 0 the cache is bounded: entry sizes are accounted on
// write and the least-recently-used entries are evicted until the total
// fits. Recency is persisted in the entries' own mtimes — every write and
// every hit stamps the file — so a restart evicts the same cold entries a
// long-lived daemon would, and daemons sharing a directory boot into one
// order. Eviction never changes results — an evicted cell re-simulates to
// the byte-identical payload (the determinism gate's promise) — it only
// costs time. The bound is honored down to a floor of one entry: a single
// entry larger than maxBytes is kept, because serving one cell beats
// serving none.
type DirCache struct {
	dir      string
	log      *slog.Logger // nil: silent
	maxBytes int64

	mu        sync.Mutex
	entries   map[string]*list.Element // cell ID -> *cacheRecord element
	lru       *list.List               // front = most recently used
	bytes     int64
	evictions int64
}

// NewDirCache opens the spill directory rooted at dir. log, when non-nil,
// receives I/O warnings.
func NewDirCache(dir string, maxBytes int64, log *slog.Logger) (*DirCache, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("server: invalid cache bound %d bytes: must be >= 0 (0 means unbounded)", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create cache dir: %w", err)
	}
	c := &DirCache{
		dir:      dir,
		log:      log,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load scans the spill directory, orders entries oldest-first by mtime —
// ties (a filesystem with coarse timestamps) by cell ID, so the order is
// at least the same on every boot — and evicts down to the bound.
func (c *DirCache) load() error {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("server: read cache dir: %w", err)
	}
	type stat struct {
		id   string
		size int64
		mod  time.Time
	}
	var stats []stat
	for _, e := range dirents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			c.warn("cache stat", "file", e.Name(), "err", err)
			continue
		}
		stats = append(stats, stat{strings.TrimSuffix(e.Name(), ".json"), info.Size(), info.ModTime()})
	}
	slices.SortFunc(stats, func(a, b stat) int {
		return cmp.Or(a.mod.Compare(b.mod), cmp.Compare(a.id, b.id))
	})
	for _, st := range stats {
		c.accountLocked(st.id, st.size)
	}
	return nil
}

// stamp records a use of id's entry where load reads recency: the file's
// mtime, set explicitly because the kernel's own write stamps tie within
// a clock tick. Called outside c.mu; an entry evicted meanwhile (by this
// cache or a peer on the directory) has no recency left to record.
func (c *DirCache) stamp(id string) {
	now := time.Now()
	if err := os.Chtimes(filepath.Join(c.dir, id+".json"), now, now); err != nil && !os.IsNotExist(err) {
		c.warn("cache touch", "cell", id, "err", err)
	}
}

// accountLocked makes id, size bytes on disk, the most recently used
// entry — known (a rewrite or a hit) or new (a first write, an entry
// found at boot, or one a peer wrote) — and evicts least-recently-used
// entries until the cache fits its bound, keeping at least one. Callers
// hold c.mu (or own the cache exclusively during load).
func (c *DirCache) accountLocked(id string, size int64) {
	if el, ok := c.entries[id]; ok {
		rec := el.Value.(*cacheRecord)
		c.bytes += size - rec.size
		rec.size = size
		c.lru.MoveToFront(el)
	} else {
		c.entries[id] = c.lru.PushFront(&cacheRecord{id: id, size: size})
		c.bytes += size
	}
	for c.maxBytes > 0 && c.bytes > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		rec := el.Value.(*cacheRecord)
		if err := os.Remove(filepath.Join(c.dir, rec.id+".json")); err != nil && !os.IsNotExist(err) {
			c.warn("cache evict", "cell", rec.id, "err", err)
		}
		c.lru.Remove(el)
		delete(c.entries, rec.id)
		c.bytes -= rec.size
		c.evictions++
	}
}

// warn logs an I/O failure the cache degraded to a miss or a skipped write.
func (c *DirCache) warn(msg string, args ...any) {
	if c.log != nil {
		c.log.Warn(msg, args...)
	}
}

// Get is Lookup for a caller that wants only the metrics.
func (c *DirCache) Get(j exp.Job) (core.Metrics, bool) {
	m, _, ok := c.Lookup(j)
	return m, ok
}

// Put is Fill for an unprofiled run.
func (c *DirCache) Put(j exp.Job, m core.Metrics) { c.Fill(j, m, nil) }

// Lookup implements exp.ResultCache. A hit on an entry an unprofiled run
// wrote returns a nil profile. Corrupt, truncated, zero-byte or
// stale-versioned spill files are misses — the cell re-simulates and the
// next Fill overwrites the damage — never errors or poisoned results.
func (c *DirCache) Lookup(j exp.Job) (core.Metrics, *obsv.Profile, bool) {
	id := j.CellID()
	data, err := os.ReadFile(filepath.Join(c.dir, id+".json"))
	if err != nil {
		if !os.IsNotExist(err) {
			c.warn("cache read", "cell", id, "err", err)
		}
		return core.Metrics{}, nil, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Schema != cacheSchema {
		c.warn("cache entry ignored", "cell", id, "schema", e.Schema, "err", err)
		return core.Metrics{}, nil, false
	}
	if e.SimVersion != core.SimVersion {
		c.warn("cache entry ignored", "cell", id, "simulator", e.SimVersion, "running", core.SimVersion)
		return core.Metrics{}, nil, false
	}
	c.stamp(id)
	c.mu.Lock()
	c.accountLocked(id, int64(len(data)))
	c.mu.Unlock()
	return e.Metrics, e.Profile, true
}

// Fill implements exp.ResultCache; p is nil for an unprofiled run. The
// write is atomic (temp file + rename) so a crashed daemon never leaves a
// truncated entry behind; size accounting and LRU eviction run under the
// cache lock after the rename lands.
func (c *DirCache) Fill(j exp.Job, m core.Metrics, p *obsv.Profile) {
	id := j.CellID()
	data, err := json.Marshal(cacheEntry{
		Schema:     cacheSchema,
		SimVersion: core.SimVersion,
		Bench:      j.Workload.Label(),
		Config:     j.Config.Label(),
		Metrics:    m,
		Profile:    p,
	})
	if err != nil {
		c.warn("cache marshal", "cell", id, "err", err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		c.warn("cache write", "err", err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.warn("cache write", "cell", id, "err", errors.Join(werr, cerr))
		return
	}
	path := filepath.Join(c.dir, id+".json")
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.warn("cache rename", "path", path, "err", err)
		return
	}
	c.stamp(id)
	c.mu.Lock()
	c.accountLocked(id, int64(len(data)))
	c.mu.Unlock()
}

// Stats reports the cache's current accounting.
func (c *DirCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.lru.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Evictions: c.evictions,
	}
}

// Close is a no-op: the cache holds no handle between calls. The perf
// ledger's disk-cache probe (benchmark/probes.go) calls it.
func (c *DirCache) Close() error { return nil }

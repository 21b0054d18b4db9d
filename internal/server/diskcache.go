package server

import (
	"bufio"
	"container/list"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gpumembw/internal/core"
	"gpumembw/internal/exp"
	"gpumembw/internal/obsv"
)

// cacheSchema versions the on-disk entry layout; entries written by an
// incompatible daemon are ignored (and overwritten on the next Put).
const cacheSchema = 1

// journalName is the access-order journal kept next to the spill files:
// one cell ID per line, most recent last. Replayed at startup so LRU
// recency survives restarts; compacted when it grows past
// journalCompactFactor times the entry count.
const journalName = "lru.journal"

const journalCompactFactor = 8

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
// per operation on errlog. Pointing several workers at one directory on
// a shared volume gives a whole cluster a single cache namespace (entry
// writes are atomic temp-file + rename, so concurrent writers are safe;
// the recency journal is advisory and per-process).
//
// When maxBytes > 0 the cache is bounded: entry sizes are accounted on
// write and the least-recently-used entries are evicted until the total
// fits. Recency is persisted in an append-only journal so a restart
// evicts the same cold entries a long-lived daemon would. Eviction never
// changes results — an evicted cell re-simulates to the byte-identical
// payload (the determinism gate's promise) — it only costs time. The
// bound is honored down to a floor of one entry: a single entry larger
// than maxBytes is kept, because serving one cell beats serving none.
type DirCache struct {
	dir      string
	errlog   io.Writer
	maxBytes int64

	mu           sync.Mutex
	entries      map[string]*list.Element // cell ID -> *cacheRecord element
	lru          *list.List               // front = most recently used
	bytes        int64
	evictions    int64
	journal      *os.File
	journalLines int
}

// NewDirCache opens the spill directory rooted at dir. errlog, when
// non-nil, receives I/O warnings.
func NewDirCache(dir string, maxBytes int64, errlog io.Writer) (*DirCache, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("server: invalid cache bound %d bytes: must be >= 0 (0 means unbounded)", maxBytes)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create cache dir: %w", err)
	}
	c := &DirCache{
		dir:      dir,
		errlog:   errlog,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
	if err := c.load(); err != nil {
		return nil, err
	}
	return c, nil
}

// load scans the spill directory, orders entries oldest-first by mtime,
// then replays the access journal to recover true recency, evicts down
// to the bound, and compacts the journal.
func (c *DirCache) load() error {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("server: read cache dir: %w", err)
	}
	type stat struct {
		rec cacheRecord
		mod int64
	}
	var stats []stat
	for _, e := range dirents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			c.warnf("cache stat %s: %v", e.Name(), err)
			continue
		}
		stats = append(stats, stat{
			rec: cacheRecord{id: strings.TrimSuffix(e.Name(), ".json"), size: info.Size()},
			mod: info.ModTime().UnixNano(),
		})
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].mod < stats[j].mod })
	for _, st := range stats {
		rec := st.rec
		c.entries[rec.id] = c.lru.PushFront(&rec)
		c.bytes += rec.size
	}

	// Replay the journal: each line promotes its cell to most-recent.
	// Unknown IDs (entries later evicted or removed) are skipped.
	jpath := filepath.Join(c.dir, journalName)
	if f, err := os.Open(jpath); err == nil {
		scanner := bufio.NewScanner(f)
		for scanner.Scan() {
			if el, ok := c.entries[strings.TrimSpace(scanner.Text())]; ok {
				c.lru.MoveToFront(el)
			}
		}
		if err := scanner.Err(); err != nil {
			c.warnf("cache journal read: %v", err)
		}
		f.Close()
	} else if !os.IsNotExist(err) {
		c.warnf("cache journal open: %v", err)
	}

	c.evictLocked()
	if err := c.compactJournalLocked(); err != nil {
		return err
	}
	return nil
}

// compactJournalLocked rewrites the journal as the current LRU order
// (oldest first) and reopens it for appending. Callers hold c.mu (or own
// the cache exclusively during load).
func (c *DirCache) compactJournalLocked() error {
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	jpath := filepath.Join(c.dir, journalName)
	tmp, err := os.CreateTemp(c.dir, "journal-*.tmp")
	if err != nil {
		return fmt.Errorf("server: cache journal: %w", err)
	}
	w := bufio.NewWriter(tmp)
	lines := 0
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		fmt.Fprintln(w, el.Value.(*cacheRecord).id)
		lines++
	}
	if err := w.Flush(); err == nil {
		err = tmp.Close()
		if err == nil {
			err = os.Rename(tmp.Name(), jpath)
		}
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("server: cache journal: %w", err)
	}
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: cache journal: %w", err)
	}
	c.journal = f
	c.journalLines = lines
	return nil
}

// touchLocked promotes id to most-recent and records the access in the
// journal, compacting when the journal outgrows the entry count.
func (c *DirCache) touchLocked(id string, el *list.Element) {
	c.lru.MoveToFront(el)
	if c.journal != nil {
		if _, err := fmt.Fprintln(c.journal, id); err != nil {
			c.warnf("cache journal append: %v", err)
		}
		c.journalLines++
		if c.journalLines > journalCompactFactor*max(c.lru.Len(), 128) {
			if err := c.compactJournalLocked(); err != nil {
				c.warnf("%v", err)
			}
		}
	}
}

// evictLocked removes least-recently-used entries until the cache fits
// its bound, keeping at least one entry. Callers hold c.mu.
func (c *DirCache) evictLocked() {
	if c.maxBytes == 0 {
		return
	}
	for c.bytes > c.maxBytes && c.lru.Len() > 1 {
		el := c.lru.Back()
		rec := el.Value.(*cacheRecord)
		if err := os.Remove(filepath.Join(c.dir, rec.id+".json")); err != nil && !os.IsNotExist(err) {
			c.warnf("cache evict %s: %v", rec.id, err)
		}
		c.lru.Remove(el)
		delete(c.entries, rec.id)
		c.bytes -= rec.size
		c.evictions++
	}
}

func (c *DirCache) warnf(format string, args ...any) {
	if c.errlog != nil {
		fmt.Fprintf(c.errlog, format+"\n", args...)
	}
}

// Get implements exp.ResultCache. Corrupt, truncated, zero-byte or
// stale-versioned spill files are misses — the cell re-simulates and the
// next Put overwrites the damage — never errors or poisoned results.
func (c *DirCache) Get(j exp.Job) (core.Metrics, bool) {
	e, ok := c.read(j)
	return e.Metrics, ok
}

// GetProfile implements exp.ProfileCache: a hit whose entry was written
// by an unprofiled run returns a nil profile — the scheduler treats that
// as "metrics only" and re-simulates with the profiler attached.
func (c *DirCache) GetProfile(j exp.Job) (core.Metrics, *obsv.Profile, bool) {
	e, ok := c.read(j)
	return e.Metrics, e.Profile, ok
}

// read loads and validates one spill entry, touching its LRU recency.
func (c *DirCache) read(j exp.Job) (cacheEntry, bool) {
	id := j.CellID()
	data, err := os.ReadFile(filepath.Join(c.dir, id+".json"))
	if err != nil {
		if !os.IsNotExist(err) {
			c.warnf("cache read %s: %v", id, err)
		}
		return cacheEntry{}, false
	}
	var e cacheEntry
	if err := json.Unmarshal(data, &e); err != nil || e.Schema != cacheSchema {
		c.warnf("cache entry %s ignored (schema %d, err %v)", id, e.Schema, err)
		return cacheEntry{}, false
	}
	if e.SimVersion != core.SimVersion {
		c.warnf("cache entry %s ignored (simulator %q, running %q)", id, e.SimVersion, core.SimVersion)
		return cacheEntry{}, false
	}
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		c.touchLocked(id, el)
	}
	c.mu.Unlock()
	return e, true
}

// Put implements exp.ResultCache. The write is atomic (temp file +
// rename) so a crashed daemon never leaves a truncated entry behind;
// size accounting and LRU eviction run under the cache lock after the
// rename lands.
func (c *DirCache) Put(j exp.Job, m core.Metrics) {
	c.write(j, m, nil)
}

// PutProfile implements exp.ProfileCache: the entry carries the profile
// alongside the metrics, so a later disk hit returns both. Profiles are
// cache-tier artifacts — a disk-hit job returns the cached profile.
func (c *DirCache) PutProfile(j exp.Job, m core.Metrics, p *obsv.Profile) {
	c.write(j, m, p)
}

func (c *DirCache) write(j exp.Job, m core.Metrics, p *obsv.Profile) {
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
		c.warnf("cache marshal %s: %v", id, err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		c.warnf("cache write: %v", err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		c.warnf("cache write %s: %v %v", id, werr, cerr)
		return
	}
	path := filepath.Join(c.dir, id+".json")
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		c.warnf("cache rename %s: %v", path, err)
		return
	}
	size := int64(len(data))
	c.mu.Lock()
	if el, ok := c.entries[id]; ok {
		rec := el.Value.(*cacheRecord)
		c.bytes += size - rec.size
		rec.size = size
		c.touchLocked(id, el)
	} else {
		rec := &cacheRecord{id: id, size: size}
		c.entries[id] = c.lru.PushFront(rec)
		c.bytes += size
		if c.journal != nil {
			fmt.Fprintln(c.journal, id) //nolint:errcheck // advisory recency hint
			c.journalLines++
		}
	}
	c.evictLocked()
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

// Close releases the journal handle (tests; the daemon holds it for life).
func (c *DirCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.journal == nil {
		return nil
	}
	err := c.journal.Close()
	c.journal = nil
	return err
}

package server

import (
	"io"

	"gpumembw/internal/exp"
)

// CacheStats is a cache backend's accounting snapshot, surfaced on
// GET /v1/stats and /metrics.
type CacheStats struct {
	// Entries is the number of persisted cells.
	Entries int
	// Bytes is the accounted payload size of all entries.
	Bytes int64
	// MaxBytes is the backend's size bound; 0 means unbounded.
	MaxBytes int64
	// Evictions counts entries the bound has evicted. Eviction never
	// changes results, only the cost of re-simulating an evicted cell.
	Evictions int64
}

// CacheBackend is the pluggable persistent result store behind the
// daemon's -cache-dir flag. The local JSON spill directory is the only
// built-in backend today; pointing several workers at one directory on a
// shared volume gives a whole cluster a single cache namespace (entry
// writes are atomic temp-file + rename, so concurrent writers are safe —
// the LRU recency journal is advisory and per-process). Other stores plug
// in through Options.Cache.
//
// Get and Put implement exp.ResultCache and may be called concurrently;
// a Get miss must degrade gracefully (the cell re-simulates), never
// error the request.
type CacheBackend interface {
	exp.ResultCache
	// Location describes where the backend persists, e.g. the spill
	// directory path; shown in stats as cacheDir.
	Location() string
	// Stats reports the backend's current accounting.
	Stats() CacheStats
	// Close releases backend resources (journals, connections).
	Close() error
}

// NewDirCache opens the spill-directory backend rooted at dir: one JSON
// file per cell named by its content hash, bounded (when maxBytes > 0)
// by LRU eviction with a persisted recency journal. errlog, when
// non-nil, receives I/O warnings.
func NewDirCache(dir string, maxBytes int64, errlog io.Writer) (CacheBackend, error) {
	return newDiskCache(dir, maxBytes, errlog)
}

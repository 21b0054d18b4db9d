package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"maps"
	"net/http"
	"slices"

	"gpumembw/internal/api"
)

// traceCtxKey carries the request's trace ID through handler contexts.
type traceCtxKey struct{}

// maxTraceIDLen bounds client-supplied trace IDs so hostile headers
// cannot bloat job records or log lines.
const maxTraceIDLen = 64

// genTraceID mints a fresh 16-hex-char trace identifier. Trace IDs are
// operational metadata — never part of cell identity or simulation
// results — so randomness here does not touch determinism guarantees.
func genTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// fallback keeps tracing degraded-but-alive.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeTraceID accepts a client-supplied trace ID if it is non-empty,
// bounded, and printable ASCII without spaces; anything else is
// discarded (the caller mints a fresh one).
func sanitizeTraceID(id string) string {
	if id == "" || len(id) > maxTraceIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c <= ' ' || c > '~' {
			return ""
		}
	}
	return id
}

// ensureTraceID returns the request's trace ID, minting one when the
// client sent none (or sent garbage).
func ensureTraceID(r *http.Request) string {
	if id := sanitizeTraceID(r.Header.Get(api.TraceHeader)); id != "" {
		return id
	}
	return genTraceID()
}

// withTrace is the tracing middleware: every request gets a trace ID —
// the client's X-Trace-Id or a freshly minted one — stored in the
// request context and echoed on the response, so a client can correlate
// any response with the server's structured logs. A job adopts its
// submission's trace ID, and a coordinator's remote run carries it to the
// worker's copy of the job.
func withTrace(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := ensureTraceID(r)
		w.Header().Set(api.TraceHeader, id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceCtxKey{}, id)))
	})
}

// traceIDFrom reads the middleware-assigned trace ID off the context.
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceCtxKey{}).(string)
	return id
}

// spanAttr annotates the most recent span of the lifecycle timeline
// transitionLocked records. Callers hold Server.mu.
func (j *job) spanAttr(key, val string) {
	if len(j.spans) == 0 {
		return
	}
	sp := &j.spans[len(j.spans)-1]
	if sp.Attrs == nil {
		sp.Attrs = make(map[string]string)
	}
	sp.Attrs[key] = val
}

// traceView assembles the wire Trace for GET /v1/jobs/{id}/trace. Attrs
// maps are deep-copied: the encoder runs outside the lock, and an open
// span's attrs may still be annotated. Callers hold Server.mu.
func (j *job) traceView() api.Trace {
	spans := slices.Clone(j.spans)
	for i := range spans {
		spans[i].Attrs = maps.Clone(spans[i].Attrs)
	}
	return api.Trace{JobID: j.ID, TraceID: j.TraceID, Spans: spans}
}

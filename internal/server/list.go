package server

import (
	"cmp"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"gpumembw/internal/api"
)

// Job listings are sorted by (SubmittedAt, ID) — both fixed at
// submission, so the order is a stable total order and a cursor into it
// never skips or repeats a job as new submissions arrive (they sort
// after the cursor). The page token encodes the last returned sort key.
// A listing covers the server's own job table: at a coordinator, the
// jobs submitted through that entry point.

// listKey is the sort key of one job in a listing.
type listKey struct {
	nano int64
	id   string
}

func (k listKey) compare(o listKey) int {
	return cmp.Or(cmp.Compare(k.nano, o.nano), strings.Compare(k.id, o.id))
}

func (j *job) listKey() listKey {
	return listKey{nano: j.SubmittedAt.UnixNano(), id: j.ID}
}

// encodePageToken serializes the cursor after key k.
func encodePageToken(k listKey) string {
	return base64.RawURLEncoding.EncodeToString(fmt.Appendf(nil, "v1/%d/%s", k.nano, k.id))
}

// decodePageToken parses a client-supplied cursor; malformed tokens are
// a 400, never a panic or a silently empty listing.
func decodePageToken(tok string) (listKey, *httpError) {
	raw, err := base64.RawURLEncoding.DecodeString(tok)
	if err == nil {
		parts := strings.SplitN(string(raw), "/", 3)
		if len(parts) == 3 && parts[0] == "v1" {
			if nano, perr := strconv.ParseInt(parts[1], 10, 64); perr == nil {
				return listKey{nano: nano, id: parts[2]}, nil
			}
		}
	}
	return listKey{}, errBadRequest("list: malformed page_token %q", tok)
}

// listQuery is the parsed ?state=&limit=&page_token= triple of a job
// listing request.
type listQuery struct {
	state  api.JobState // "" = all states
	limit  int          // 0 = unbounded
	cursor *listKey
}

// parseListQuery validates the listing parameters; every rejection is a
// 400 with detail.
func parseListQuery(q url.Values) (listQuery, *httpError) {
	var lq listQuery
	if st := q.Get("state"); st != "" {
		switch api.JobState(st) {
		case api.JobQueued, api.JobRunning, api.JobDone, api.JobFailed, api.JobCanceled:
			lq.state = api.JobState(st)
		default:
			return lq, errBadRequest("list: unknown state %q (known: queued, running, done, failed, canceled)", st)
		}
	}
	if ls := q.Get("limit"); ls != "" {
		n, err := strconv.Atoi(ls)
		if err != nil || n < 0 {
			return lq, errBadRequest("list: invalid limit %q: must be a non-negative integer (0 = unbounded)", ls)
		}
		lq.limit = n
	}
	if tok := q.Get("page_token"); tok != "" {
		k, he := decodePageToken(tok)
		if he != nil {
			return lq, he
		}
		lq.cursor = &k
	}
	return lq, nil
}

// listJobs assembles one page of GET /v1/jobs: the job table filtered,
// ordered and cut. It sorts record pointers and copies only the page's
// jobs, so a listing of a large table costs one small sort, not a copy of
// every job.
func (s *Server) listJobs(lq listQuery) api.JobList {
	s.mu.Lock()
	defer s.mu.Unlock()
	page := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		if (lq.state == "" || j.State == lq.state) && (lq.cursor == nil || lq.cursor.compare(j.listKey()) < 0) {
			page = append(page, j)
		}
	}
	slices.SortFunc(page, func(a, b *job) int { return a.listKey().compare(b.listKey()) })
	var list api.JobList
	if lq.limit > 0 && len(page) > lq.limit {
		page = page[:lq.limit]
		list.NextPageToken = encodePageToken(page[lq.limit-1].listKey())
	}
	list.Jobs = make([]api.Job, len(page))
	for i, j := range page {
		list.Jobs[i] = j.Job
	}
	return list
}

// parseWait reads the ?wait= long-poll deadline of a GET. Absent means
// no wait; durations beyond maxWait are clamped, negatives rejected.
func parseWait(r *http.Request) (time.Duration, *httpError) {
	q := r.URL.Query().Get("wait")
	if q == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(q)
	if err != nil {
		return 0, errBadRequest("wait: invalid duration %q (e.g. 30s)", q)
	}
	if d < 0 {
		return 0, errBadRequest("wait: negative duration %q", q)
	}
	if d > maxWait {
		d = maxWait
	}
	return d, nil
}

// maxWait caps one long-poll round; clients wanting longer simply
// re-issue the request (the client package does this transparently).
const maxWait = 5 * time.Minute

// longPollHeader advertises long-poll support on job, sweep and
// exploration GETs, for clients that probe for it; the client package
// needs no probe, since a round answered early is followed by a pause.
const longPollHeader = "Gpusimd-Long-Poll"

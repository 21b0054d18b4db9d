package server

import (
	"encoding/base64"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"gpumembw/internal/api"
)

// Job listings are sorted by (SubmittedAt, ID) — both fixed at
// submission, so the order is a stable total order and a cursor into it
// never skips or repeats a job as new submissions arrive (they sort
// after the cursor). The page token encodes the last returned sort key;
// the format is shared by single daemons and coordinators, which lets a
// coordinator forward a client's token to every worker verbatim and
// k-way-merge the pages.

// listKey is the sort key of one job in a listing.
type listKey struct {
	nano int64
	id   string
}

func (k listKey) less(o listKey) bool {
	if k.nano != o.nano {
		return k.nano < o.nano
	}
	return k.id < o.id
}

func jobListKey(j api.Job) listKey {
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
	state    api.JobState // "" = all states
	limit    int          // 0 = unbounded
	cursor   *listKey
	rawToken string
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
		lq.rawToken = tok
	}
	return lq, nil
}

// paginate filters, orders and cuts a job snapshot into one page:
// the shared tail of both the daemon's and the coordinator's listing.
// jobs may arrive in any order and are sorted here.
func paginate(jobs []api.Job, lq listQuery) api.JobList {
	page := jobs[:0:0]
	for _, j := range jobs {
		if lq.state != "" && j.State != lq.state {
			continue
		}
		if lq.cursor != nil && !lq.cursor.less(jobListKey(j)) {
			continue
		}
		page = append(page, j)
	}
	sort.Slice(page, func(i, k int) bool { return jobListKey(page[i]).less(jobListKey(page[k])) })
	list := api.JobList{Jobs: page}
	if lq.limit > 0 && len(page) > lq.limit {
		list.Jobs = page[:lq.limit]
		list.NextPageToken = encodePageToken(jobListKey(page[lq.limit-1]))
	}
	if list.Jobs == nil {
		list.Jobs = []api.Job{}
	}
	return list
}

// workerPage is one worker's answer to a listing query a coordinator
// forwarded.
type workerPage struct {
	addr string
	list api.JobList
}

// mergePages k-way merges the workers' pages of one listing query into
// the fleet-wide page: union, dedup by ID — a cell that moved exists on
// two workers; the copy on its tracked placement wins — re-sort, re-cut.
// A worker that truncated its page has revealed its jobs only up to its
// last returned key, so the merged page must not emit past the minimum
// such horizon (items beyond it could interleave with the hidden
// remainder) and must carry a token even when the visible union fits the
// limit — otherwise a walk stops early whenever the tail of the listing
// lives on a single worker.
func mergePages(pages []workerPage, placement func(id string) (worker string, tracked bool), lq listQuery) api.JobList {
	merged := make(map[string]api.Job)
	var horizon *listKey
	for _, p := range pages {
		if n := len(p.list.Jobs); p.list.NextPageToken != "" && n > 0 {
			k := jobListKey(p.list.Jobs[n-1])
			if horizon == nil || k.less(*horizon) {
				horizon = &k
			}
		}
		for _, j := range p.list.Jobs {
			worker, tracked := placement(j.ID)
			if _, have := merged[j.ID]; !have || !tracked || worker == p.addr {
				merged[j.ID] = j
			}
		}
	}
	jobs := make([]api.Job, 0, len(merged))
	for _, j := range merged {
		if horizon != nil && horizon.less(jobListKey(j)) {
			continue // beyond a truncated worker's view; next round re-fetches it
		}
		jobs = append(jobs, j)
	}
	list := paginate(jobs, lq)
	if horizon != nil && list.NextPageToken == "" {
		// Some worker has more past the horizon: keep the walk going from
		// the last emitted key (or the horizon itself if the state filter
		// emptied this page).
		k := *horizon
		if n := len(list.Jobs); n > 0 {
			k = jobListKey(list.Jobs[n-1])
		}
		list.NextPageToken = encodePageToken(k)
	}
	return list
}

// listJobs assembles one page of GET /v1/jobs.
func (s *Server) listJobs(lq listQuery) api.JobList {
	s.mu.Lock()
	jobs := make([]api.Job, 0, len(s.order))
	for _, id := range s.order {
		jobs = append(jobs, s.jobs[id].Job)
	}
	s.mu.Unlock()
	return paginate(jobs, lq)
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

// longPollHeader advertises long-poll support on job and sweep GETs.
// Clients that see it switch from interval polling to ?wait= requests;
// its absence (an older daemon, a foreign proxy) selects the jittered
// polling fallback.
const longPollHeader = "Gpusimd-Long-Poll"

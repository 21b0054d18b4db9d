package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call across a layer boundary, recorded by the harness
// around the call (nothing inside the program under test records spans).
// Times are nanoseconds since the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Req    string `json:"req"`    // spans of one cell, report or op share it
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so traced and untraced runs share one code path. Only
// the goroutine that runs the workload records.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 from a nil recorder).
func (r *recorder) begin(parent int, req, name string) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: time.Since(r.t0).Nanoseconds(), End: -1})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.t0).Nanoseconds()
}

// add records a span somebody else timed: the queued and running spans the
// server reports for a job, attached under the op that caused them.
func (r *recorder) add(parent int, req, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()})
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its child spans cover. Children may overlap each other
// and may stick out of the parent (a server clock is not the client's);
// only their union inside the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName groups self times, in nanoseconds, by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(self[s.ID]))
	}
	return out
}

// maxSelfGap returns the largest relative difference, over root spans,
// between a root's duration and the summed self times of its tree. It is 0
// while every child lies inside its parent and siblings do not overlap;
// the traced run prints it so that a span recorded wrongly shows.
func maxSelfGap(spans []span) float64 {
	self := selfTimes(spans)
	root := make(map[int]int)
	total := make(map[int]int64)
	for _, s := range spans { // a parent's ID is always lower than its children's
		if s.Parent == 0 {
			root[s.ID] = s.ID
		} else {
			root[s.ID] = root[s.Parent]
		}
		total[root[s.ID]] += self[s.ID]
	}
	worst := 0.0
	for _, s := range spans {
		if s.Parent != 0 || s.End <= s.Start {
			continue
		}
		dur := float64(s.End - s.Start)
		if gap := math.Abs(float64(total[s.ID])-dur) / dur; gap > worst {
			worst = gap
		}
	}
	return worst
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"gpumembw/client"
	"gpumembw/internal/api"
)

// waitTraced submits spec with a caller-chosen trace ID and polls to a
// terminal state.
func waitTraced(t *testing.T, c *client.Client, spec client.JobSpec, traceID string) *client.Job {
	t.Helper()
	ctx := context.Background()
	j, err := c.SubmitTraced(ctx, spec, traceID)
	if err != nil {
		t.Fatal(err)
	}
	j, err = c.Wait(ctx, j.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != client.JobDone {
		t.Fatalf("state = %s (error %q), want done", j.State, j.Error)
	}
	return j
}

func TestProfileEndpointServesVerdict(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	j := waitTraced(t, c, client.JobSpec{Config: "baseline", Bench: testBench, Profile: true}, "")

	p, err := c.Profile(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.JobID != j.ID || p.Profile == nil {
		t.Fatalf("profile payload %+v", p)
	}
	if p.Profile.Verdict.Bottleneck == "" {
		t.Fatal("profile has no bottleneck verdict")
	}
	if p.Profile.Windows == 0 || len(p.Profile.Series) == 0 {
		t.Fatalf("empty series: windows=%d series=%d", p.Profile.Windows, len(p.Profile.Series))
	}
	for _, s := range p.Profile.Series {
		if len(s.Mean) != p.Profile.Windows {
			t.Fatalf("series %s/%s has %d means for %d windows", s.Level, s.Gauge, len(s.Mean), p.Profile.Windows)
		}
	}
}

func TestProfileAbsentUntilProfiledRerun(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	ctx := context.Background()
	spec := client.JobSpec{Config: "baseline", Bench: testBench}
	j := waitTraced(t, c, spec, "")

	if _, err := c.Profile(ctx, j.ID); err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("unprofiled done job served a profile (err = %v)", err)
	}

	// Resubmitting the same cell with profile=true revives it: metrics
	// stay memoized, only the profile is computed.
	spec.Profile = true
	up := waitTraced(t, c, spec, "")
	if up.ID != j.ID {
		t.Fatalf("profiled resubmit changed the job ID: %s vs %s", up.ID, j.ID)
	}
	if !bytes.Equal(canonicalJSON(t, up.Metrics), canonicalJSON(t, j.Metrics)) {
		t.Fatal("profiled rerun changed the metrics")
	}
	if _, err := c.Profile(ctx, j.ID); err != nil {
		t.Fatalf("profile still missing after profiled rerun: %v", err)
	}
}

func TestTraceTimelineAndPropagatedID(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 2})
	ctx := context.Background()
	const id = "trace-test-0001"
	j := waitTraced(t, c, client.JobSpec{Config: "baseline", Bench: testBench, Profile: true}, id)
	if j.TraceID != id {
		t.Fatalf("job traceId = %q, want %q", j.TraceID, id)
	}

	tr, err := c.Trace(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != id {
		t.Fatalf("trace traceId = %q, want %q", tr.TraceID, id)
	}
	assertSpanChain(t, tr.Spans, []string{"queued", "running", "done"})
	for _, s := range tr.Spans {
		if s.Name == "running" && s.Attrs["tier"] == "" {
			t.Fatalf("running span has no cache-tier attribution: %+v", s)
		}
	}
}

// assertSpanChain checks the span names are want, in order, and that the
// chain passes checkSpanChain.
func assertSpanChain(t *testing.T, spans []client.Span, want []string) {
	t.Helper()
	var names []string
	for _, s := range spans {
		names = append(names, s.Name)
	}
	if !slices.Equal(names, want) {
		t.Fatalf("span chain %v, want %v", names, want)
	}
	if err := checkSpanChain(spans); err != nil {
		t.Fatal(err)
	}
}

// checkSpanChain holds a terminal job's timeline to the rules every chain
// obeys, however often the job was canceled and resubmitted: at least a
// queued span and a terminal marker, the terminal marker last, every span
// closed, none ending before it starts, and the timeline monotonic (each
// span starts no earlier than the previous one).
func checkSpanChain(spans []client.Span) error {
	if len(spans) < 2 {
		return fmt.Errorf("span chain has %d spans, want >= 2 (queued + terminal)", len(spans))
	}
	if last := spans[len(spans)-1].Name; !client.JobState(last).Terminal() {
		return fmt.Errorf("span chain ends in %q, not a terminal marker", last)
	}
	for i, s := range spans {
		if s.End == nil {
			return fmt.Errorf("span %q still open on a terminal job", s.Name)
		}
		if s.End.Before(s.Start) {
			return fmt.Errorf("span %q ends before it starts", s.Name)
		}
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			return fmt.Errorf("span %q starts before its predecessor %q", s.Name, spans[i-1].Name)
		}
	}
	return nil
}

func TestTraceIDMintedAndEchoed(t *testing.T) {
	_, c := newTestServer(t, Options{Workers: 1})
	req, err := http.NewRequest("GET", c.BaseURL()+"/v1/stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get(api.TraceHeader)
	if minted == "" {
		t.Fatal("server did not mint an X-Trace-Id")
	}

	req.Header.Set(api.TraceHeader, "caller-chosen")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(api.TraceHeader); got != "caller-chosen" {
		t.Fatalf("echoed trace ID = %q, want caller-chosen", got)
	}
}

func TestClusterTraceSurvivesForwarding(t *testing.T) {
	tc := newTestCluster(t, []*Server{newWorker(t), newWorker(t)})
	ctx := context.Background()
	const id = "cluster-trace-0001"
	j := waitTraced(t, tc.client, client.JobSpec{Config: "baseline", Bench: testBench, Profile: true}, id)
	if j.TraceID != id {
		t.Fatalf("job traceId through coordinator = %q, want %q", j.TraceID, id)
	}

	// The coordinator's trace is its own lifecycle, the worker it ran on
	// named on the running span; the worker's copy of the job carries the
	// same trace ID.
	tr, err := tc.client.Trace(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != id {
		t.Fatalf("coordinator trace traceId = %q, want %q", tr.TraceID, id)
	}
	assertSpanChain(t, tr.Spans, []string{"queued", "running", "done"})
	if tr.Spans[1].Attrs["worker"] == "" {
		t.Fatalf("running span has no worker attribution: %+v", tr.Spans[1])
	}
	copies := 0
	for _, w := range tc.workers {
		w.mu.Lock()
		if wj, ok := w.jobs[j.ID]; ok {
			copies++
			if wj.TraceID != id {
				t.Errorf("worker's copy of the job has trace ID %q, want %q", wj.TraceID, id)
			}
		}
		w.mu.Unlock()
	}
	if copies != 1 {
		t.Fatalf("%d workers hold the job, want its one rendezvous worker", copies)
	}

	// The profile comes through the coordinator.
	p, err := tc.client.Profile(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Profile == nil || p.Profile.Verdict.Bottleneck == "" {
		t.Fatalf("profile through the coordinator: %+v", p)
	}
}

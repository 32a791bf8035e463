package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ucp/internal/dist"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/journal"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
)

// openSink opens a trace sink in dir for one test server; the server never
// closes its configured sink, so the test does.
func openSink(t *testing.T, dir string) *journal.Sink {
	t.Helper()
	sink, err := journal.OpenSink(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sink.Close() })
	return sink
}

// pollJobDone polls /v1/jobs/{id} until the job reaches a terminal state.
func pollJobDone(t *testing.T, base, jobID string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		_, body := getBody(t, base+"/v1/jobs/"+jobID)
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("job status: %v: %s", err, body)
		}
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobStatus{}
}

// sinkTraceIDs collects the trace IDs of every "trace" record in a sink
// directory.
func sinkTraceIDs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	records, skipped, err := journal.ReadSink(dir)
	if err != nil {
		t.Fatalf("read sink %s: %v", dir, err)
	}
	if skipped != 0 {
		t.Errorf("sink %s: %d unreadable lines in a clean run", dir, skipped)
	}
	ids := map[string]bool{}
	for _, r := range records {
		if r.Kind == "trace" {
			ids[r.TraceID] = true
		}
	}
	return ids
}

// TestTracedDistributedSweepStitchesOneTree is the tentpole acceptance: a
// ?trace=1 sweep dispatched across two worker replicas returns ONE span
// tree under one trace ID, with each worker's spans grafted under the
// coordinator's dispatch span, and the same trace is recoverable from the
// durable sinks of all three processes after the request has ended.
func TestTracedDistributedSweepStitchesOneTree(t *testing.T) {
	coordDir, w1Dir, w2Dir := t.TempDir(), t.TempDir(), t.TempDir()

	w1, _ := testServer(t, Config{EnableWorker: true, TraceSink: openSink(t, w1Dir)})
	w2, _ := testServer(t, Config{EnableWorker: true, TraceSink: openSink(t, w2Dir)})

	coord, err := dist.New(dist.Options{Workers: []string{w1.URL, w2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	ts, _ := testServer(t, Config{CellExec: coord.Exec, TraceSink: openSink(t, coordDir)})

	// Two cells: the round-robin tie-break sends one to each worker.
	resp, body := postJSON(t, ts.URL+"/v1/sweep?trace=1",
		`{"programs":["fibcall","bs"],"configs":["k1"],"techs":["45nm"],"runs":1,"validation_budget":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		JobID string `json:"job_id"`
		Cells int    `json:"cells"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 2 {
		t.Fatalf("cells = %d, want 2", sub.Cells)
	}

	st := pollJobDone(t, ts.URL, sub.JobID)
	if st.State != "done" || st.Failed != 0 {
		t.Fatalf("job state=%s failed=%d errors=%v", st.State, st.Failed, st.CellErrors)
	}
	if st.Trace == nil {
		t.Fatal("traced sweep returned no span tree")
	}
	traceID := st.Trace.TraceID
	if len(traceID) != 32 {
		t.Fatalf("root trace ID = %q, want 32 hex digits", traceID)
	}

	// One stitched tree: worker-rooted subtrees hang under the dispatch
	// spans, share the coordinator's trace ID, and are parented on the
	// enclosing dist.attempt span's ID.
	type stitch struct {
		attemptSpanID string
		worker        *obs.SpanTree
	}
	var stitched []stitch
	var walk func(tr *obs.SpanTree)
	walk = func(tr *obs.SpanTree) {
		if tr.Name == "dist.attempt" {
			for _, c := range tr.Children {
				if c.Name == "worker" {
					stitched = append(stitched, stitch{tr.SpanID, c})
				}
			}
		}
		for _, c := range tr.Children {
			walk(c)
		}
	}
	walk(st.Trace)
	if len(stitched) != 2 {
		t.Fatalf("found %d worker subtrees under dist.attempt spans, want 2", len(stitched))
	}
	for _, sw := range stitched {
		if sw.worker.TraceID != traceID {
			t.Errorf("worker subtree trace ID = %q, want %q", sw.worker.TraceID, traceID)
		}
		if sw.worker.ParentSpanID != sw.attemptSpanID {
			t.Errorf("worker subtree parent span = %q, want enclosing dist.attempt %q",
				sw.worker.ParentSpanID, sw.attemptSpanID)
		}
		names := map[string]bool{}
		spanNames(sw.worker, names)
		if !names["worker.cell"] {
			t.Errorf("worker subtree missing worker.cell span (have %v)", names)
		}
	}

	// The same trace survives the request in every process's durable sink.
	if ids := sinkTraceIDs(t, coordDir); !ids[traceID] {
		t.Errorf("coordinator sink lacks trace %s (has %v)", traceID, ids)
	}
	for i, dir := range []string{w1Dir, w2Dir} {
		if ids := sinkTraceIDs(t, dir); !ids[traceID] {
			t.Errorf("worker %d sink lacks trace %s (has %v)", i+1, traceID, ids)
		}
	}
}

// TestJobEventsStreamOneEventPerCell pins the live-telemetry acceptance:
// GET /v1/jobs/{id}/events streams NDJSON and carries at least one event
// per cell, ending with the terminal job_finished line, after which the
// stream closes. A reconnect replays the same history.
func TestJobEventsStreamOneEventPerCell(t *testing.T) {
	ts, _ := testServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"programs":["fibcall","bs","insertsort"],"configs":["k1"],"techs":["45nm"],"runs":1,"validation_budget":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep: %d %s", resp.StatusCode, body)
	}
	var sub struct {
		JobID     string `json:"job_id"`
		Cells     int    `json:"cells"`
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.EventsURL != "/v1/jobs/"+sub.JobID+"/events" {
		t.Fatalf("events_url = %q", sub.EventsURL)
	}

	readStream := func() []jobEvent {
		res, err := http.Get(ts.URL + sub.EventsURL)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != 200 {
			t.Fatalf("events: status %d", res.StatusCode)
		}
		if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("events content type = %q", ct)
		}
		var events []jobEvent
		sc := bufio.NewScanner(res.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var ev jobEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("event line %q: %v", sc.Text(), err)
			}
			events = append(events, ev)
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		return events
	}

	// Live stream: connects while the job runs (or just after — the replay
	// covers that race), ends when the job does.
	events := readStream()
	if len(events) == 0 {
		t.Fatal("event stream was empty")
	}
	last := events[len(events)-1]
	if last.Event != "job_finished" || last.State != "done" {
		t.Fatalf("last event = %+v, want terminal job_finished/done", last)
	}
	perCell := map[int]int{}
	for _, ev := range events {
		if ev.Cell != nil {
			perCell[*ev.Cell]++
		}
		switch ev.Event {
		case "cell_finished", "cell_failed":
			if ev.DurMS < 0 {
				t.Errorf("%s carries negative duration: %+v", ev.Event, ev)
			}
		}
	}
	for i := 0; i < sub.Cells; i++ {
		if perCell[i] == 0 {
			t.Errorf("no events for cell %d", i)
		}
	}

	// Terminal replay: a late subscriber gets the full history again,
	// still ending with job_finished, and the request returns immediately.
	replay := readStream()
	if len(replay) == 0 || replay[len(replay)-1].Event != "job_finished" {
		t.Fatalf("replay = %d events, want history ending in job_finished", len(replay))
	}

	// Events for an unknown job 404 like the status endpoint.
	res, err := http.Get(ts.URL + "/v1/jobs/job-999999/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job events: status %d, want 404", res.StatusCode)
	}
}

// TestJobEventsLosslessForSlowReader: the event stream is a cursor over
// the job's complete log, so a reader that reads nothing while many more
// events than any per-reader buffer are published still gets every event,
// in order, ending with job_finished.
func TestJobEventsLosslessForSlowReader(t *testing.T) {
	ts, svc := testServer(t, Config{})
	const cells = 1000
	j, _, err := svc.jobs.tryAdd(SweepRequest{}, make([]useCase, cells), 1)
	if err != nil {
		t.Fatal(err)
	}
	j.mu.Lock()
	j.state = jobRunning
	j.mu.Unlock()

	res, err := http.Get(ts.URL + "/v1/jobs/" + j.id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", res.StatusCode)
	}

	// The reader holds its stream open and reads nothing while every cell
	// reports and the job finishes.
	for i := 0; i < cells; i++ {
		j.mu.Lock()
		j.done++
		j.publishProgressLocked(jobEvent{Event: "cell_finished", Cell: &i})
		j.mu.Unlock()
	}
	j.mu.Lock()
	j.state = jobDone
	j.publishProgressLocked(jobEvent{Event: "job_finished", State: string(jobDone)})
	j.mu.Unlock()

	var events []jobEvent
	sc := bufio.NewScanner(res.Body)
	for sc.Scan() {
		var ev jobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) != cells+1 {
		t.Fatalf("got %d events, want %d", len(events), cells+1)
	}
	for i, ev := range events[:cells] {
		if ev.Event != "cell_finished" || ev.Cell == nil || *ev.Cell != i || ev.Done != i+1 {
			t.Fatalf("event %d = %+v, want cell_finished for cell %d", i, ev, i)
		}
	}
	if last := events[cells]; last.Event != "job_finished" || last.State != "done" || last.Done != cells {
		t.Fatalf("last event = %+v, want job_finished/done with %d done", last, cells)
	}
}

// TestTraceSinkPersistenceRules pins which requests land durably: ?trace=1
// always, head-sampled successes at the configured rate, failures always,
// and nothing else.
func TestTraceSinkPersistenceRules(t *testing.T) {
	// Rate 0: only explicit ?trace=1 (and failures) persist.
	dir := t.TempDir()
	ts, _ := testServer(t, Config{TraceSink: openSink(t, dir)})

	if resp, body := postJSON(t, ts.URL+"/v1/analyze", smallAnalyze); resp.StatusCode != 200 {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	if ids := sinkTraceIDs(t, dir); len(ids) != 0 {
		t.Fatalf("unsampled successful analyze persisted a trace: %v", ids)
	}

	resp, body := postJSON(t, ts.URL+"/v1/analyze?trace=1", smallAnalyze)
	if resp.StatusCode != 200 {
		t.Fatalf("traced analyze: %d %s", resp.StatusCode, body)
	}
	var tr analyzeResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	ids := sinkTraceIDs(t, dir)
	if !ids[tr.Trace.TraceID] {
		t.Fatalf("?trace=1 trace %s not in sink (has %v)", tr.Trace.TraceID, ids)
	}

	// Rate 1: every successful request persists.
	dir2 := t.TempDir()
	ts2, _ := testServer(t, Config{TraceSink: openSink(t, dir2), TraceSample: 1})
	if resp, body := postJSON(t, ts2.URL+"/v1/analyze", smallAnalyze); resp.StatusCode != 200 {
		t.Fatalf("analyze: %d %s", resp.StatusCode, body)
	}
	if ids := sinkTraceIDs(t, dir2); len(ids) != 1 {
		t.Fatalf("sampled-at-1 analyze persisted %d traces, want 1", len(ids))
	}
}

// lockedBuffer is a goroutine-safe log capture target.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWorkerAdoptsRequestIDAndTraceparent pins the cross-process
// correlation contract: a dispatch carrying X-Request-Id and traceparent
// headers answers with a span tree rooted in the remote trace, tags it
// with the forwarded request ID, and logs the worker's cell line under
// that same ID — one grep correlates coordinator and replica logs.
func TestWorkerAdoptsRequestIDAndTraceparent(t *testing.T) {
	logs := &lockedBuffer{}
	ts, _ := testServer(t, Config{
		EnableWorker: true,
		Logger:       slog.New(slog.NewTextHandler(logs, nil)),
	})

	const (
		reqID   = "coord-req-000042"
		traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
		spanID  = "00f067aa0ba902b7"
	)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/worker/cell",
		strings.NewReader(`{"program":"fibcall","config":"k1","tech":"45nm","runs":1,"validation_budget":20,"skip_reduced":true}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	req.Header.Set("traceparent", fmt.Sprintf("00-%s-%s-01", traceID, spanID))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("worker cell: %d %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-Id"); got != reqID {
		t.Errorf("response X-Request-Id = %q, want the forwarded %q", got, reqID)
	}

	var env experiment.CellResponse
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil {
		t.Fatal("traceparent dispatch returned no worker span tree")
	}
	if env.Trace.TraceID != traceID {
		t.Errorf("worker trace ID = %q, want adopted %q", env.Trace.TraceID, traceID)
	}
	if env.Trace.ParentSpanID != spanID {
		t.Errorf("worker parent span = %q, want remote %q", env.Trace.ParentSpanID, spanID)
	}
	if got, _ := env.Trace.Attrs["request_id"].(string); got != reqID {
		t.Errorf("worker root request_id attr = %v, want %q", env.Trace.Attrs["request_id"], reqID)
	}

	out := logs.String()
	if !strings.Contains(out, "request_id="+reqID) {
		t.Errorf("worker logs lack request_id=%s:\n%s", reqID, out)
	}
	if !strings.Contains(out, "worker cell") {
		t.Errorf("worker logs lack the per-cell line:\n%s", out)
	}

	// A malformed traceparent must not fail the request — it falls back to
	// a fresh trace.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/worker/cell",
		strings.NewReader(`{"program":"fibcall","config":"k1","tech":"45nm","runs":1,"validation_budget":20,"skip_reduced":true}`))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("traceparent", "garbage-header")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("malformed traceparent: %d %s", resp2.StatusCode, b2)
	}
	var env2 experiment.CellResponse
	if err := json.Unmarshal(b2, &env2); err != nil {
		t.Fatal(err)
	}
	if env2.Trace == nil || env2.Trace.TraceID == traceID {
		t.Errorf("malformed traceparent should yield a fresh trace, got %+v", env2.Trace)
	}
}

// TestResumedJobSeedsETAFromJournal: a job resumed from the journal emits
// a cells_resumed event whose ETA comes from the journaled per-cell
// durations rather than starting blind.
func TestResumedJobSeedsETAFromJournal(t *testing.T) {
	// Covered end-to-end by resume tests plus prepareResume's seeding; here
	// we pin the estimator arithmetic.
	j := &job{cases: make([]useCase, 10), done: 4, durSumMS: 4000, durCount: 4}
	done, failed, remaining, eta := j.progressLocked()
	if done != 4 || failed != 0 || remaining != 6 {
		t.Fatalf("progress = %d/%d/%d", done, failed, remaining)
	}
	if eta != 6*1000 {
		t.Fatalf("eta = %dms, want 6000 (6 cells × 1000ms mean)", eta)
	}
}

// TestDistributedCellBeyondQueryRunsCap pins that the worker endpoint runs
// the cells of any sweep a local run accepts: a cell of 65 runs, above the
// public routes' maxRuns, dispatched through a coordinator to a worker,
// returns exactly the locally computed cell, while /v1/analyze still
// refuses the same count.
func TestDistributedCellBeyondQueryRunsCap(t *testing.T) {
	w, _ := testServer(t, Config{EnableWorker: true})
	coord, err := dist.New(dist.Options{Workers: []string{w.URL}})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	b, _ := malardalen.ByName("fibcall")
	o := experiment.Options{Runs: maxRuns + 1, ValidationBudget: 20}
	got, err := coord.Exec(context.Background(), b, 0, energy.Tech45, o)
	if err != nil {
		t.Fatalf("distributed cell of %d runs: %v", o.Runs, err)
	}
	want, err := experiment.RunCell(context.Background(), b, 0, energy.Tech45, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("distributed cell %+v\nlocal cell %+v", got, want)
	}

	resp, body := postJSON(t, w.URL+"/v1/analyze",
		fmt.Sprintf(`{"program":"fibcall","config":"k1","tech":"45nm","runs":%d,"validation_budget":20}`, maxRuns+1))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/analyze with %d runs: %d %s, want 400", maxRuns+1, resp.StatusCode, body)
	}
}

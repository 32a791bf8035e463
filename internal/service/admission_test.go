package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestAdmissionRetryAfter (satellite) audits every admission-control
// refusal across the four POST routes: saturation 429s (sweep, batch) and
// draining 503s (analyze, sweep, batch, worker/cell) must all carry
// Retry-After, so a client that honors the header backs off on every
// refusal path, not just the one the first test happened to pin.
func TestAdmissionRetryAfter(t *testing.T) {
	ts, svc := testServer(t, Config{MaxQueuedJobs: 1, EnableWorker: true})

	// Occupy the single job slot with a queued job that is never started:
	// the store counts it active, nothing runs.
	if _, _, err := svc.jobs.tryAdd(SweepRequest{}, nil, 1); err != nil {
		t.Fatal(err)
	}

	sweepBody := `{"programs":["fibcall"],"configs":["k1"],"techs":["45nm"],"runs":1,"validation_budget":20}`
	saturated := []struct {
		name, path, body string
	}{
		{"sweep", "/v1/sweep", sweepBody},
		{"batch", "/v1/batch", sweepBody},
	}
	for _, tc := range saturated {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("saturated %s: status = %d, want 429 (body %s)", tc.name, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("saturated %s: 429 without Retry-After", tc.name)
		}
	}

	// Drain flips every POST route to 503 — again with Retry-After, so load
	// balancers rotating a restarting replica get the same back-off hint.
	svc.Drain()
	drained := []struct {
		name, path, body string
	}{
		{"analyze", "/v1/analyze", smallAnalyze},
		{"sweep", "/v1/sweep", sweepBody},
		{"batch", "/v1/batch", sweepBody},
		{"worker/cell", "/v1/worker/cell", smallAnalyze},
	}
	for _, tc := range drained {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("draining %s: status = %d, want 503 (body %s)", tc.name, resp.StatusCode, body)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("draining %s: 503 without Retry-After", tc.name)
		}
	}
}

// TestAdmissionBatchTakesJobSlot pins that a running batch occupies a job
// slot: with the only slot held by a hung batch, a sweep is refused with
// 429 + Retry-After and /readyz reports saturation. When the batch client
// goes away its job is cancelled and the slot frees.
func TestAdmissionBatchTakesJobSlot(t *testing.T) {
	armFaults(t, "experiment.cell:*=hang")
	ts, _ := testServer(t, Config{MaxQueuedJobs: 1, JobTimeout: time.Hour})

	ctx, cancelBatch := context.WithCancel(context.Background())
	defer cancelBatch()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/batch",
		strings.NewReader(`{"cells":[{"program":"fibcall","config":"k1","tech":"45nm"}],"runs":1}`))
	if err != nil {
		t.Fatal(err)
	}
	headers := make(chan *http.Response, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			close(headers)
			return
		}
		headers <- resp
	}()
	select {
	case resp, ok := <-headers:
		if !ok {
			t.Fatal("batch request failed before its headers arrived")
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d, want 200", resp.StatusCode)
		}
	case <-time.After(5 * time.Second):
		t.Error("batch response headers did not arrive")
	}

	resp, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"programs":["fibcall"],"configs":["k1"],"techs":["45nm"],"runs":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("sweep beside a running batch: status %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("sweep refusal without Retry-After")
	}
	if _, body := getBody(t, ts.URL+"/readyz"); !strings.Contains(string(body), "saturated") {
		t.Errorf("readyz beside a running batch = %s, want saturated", body)
	}

	// The client leaves: the batch job is cancelled and the slot frees.
	cancelBatch()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := getBody(t, ts.URL+"/readyz")
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readyz after the batch client left = %d %s, want ready", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBatchesDoNotEvictFinishedSweeps: a finished batch leaves the job
// store, so more than maxFinishedJobs batches after a sweep still leave
// the sweep's results fetchable instead of pruned as "expired".
func TestBatchesDoNotEvictFinishedSweeps(t *testing.T) {
	ts, svc := testServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"programs":["fibcall"],"configs":["k1"],"techs":["45nm"],"runs":1,"validation_budget":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if st := pollJob(t, ts.URL+sub.StatusURL); st.State != string(jobDone) {
		t.Fatalf("sweep state = %s (%s)", st.State, st.Error)
	}

	// The same cell every time: after the first batch each is a cache hit.
	batch := `{"cells":[` + smallAnalyze + `]}`
	for i := 0; i < maxFinishedJobs+1; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/batch", batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: status %d: %s", i, resp.StatusCode, body)
		}
		if _, summary := decodeBatchStream(t, body); summary.OK != 1 {
			t.Fatalf("batch %d: summary %+v, want one ok cell", i, summary)
		}
	}

	resp, body = getBody(t, ts.URL+sub.StatusURL)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep after %d batches: status %d: %s", maxFinishedJobs+1, resp.StatusCode, body)
	}
	if c := svc.jobs.counts(); c[jobDone] > 2 {
		t.Errorf("store holds %d finished jobs, want the sweep and at most one batch", c[jobDone])
	}
}

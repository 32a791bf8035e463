package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// testServer spins up the service on an httptest listener with quiet
// logging and a small worker pool.
func testServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

// smallAnalyze is a cheap use case: the tiniest benchmark, one run, a
// small optimizer budget.
const smallAnalyze = `{"program":"fibcall","config":"k1","tech":"45nm","runs":1,"validation_budget":20}`

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHealthz(t *testing.T) {
	ts, _ := testServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("body = %s", body)
	}
}

func TestBenchmarksAndConfigs(t *testing.T) {
	ts, _ := testServer(t, Config{})

	resp, body := getBody(t, ts.URL+"/v1/benchmarks")
	if resp.StatusCode != 200 {
		t.Fatalf("benchmarks status = %d", resp.StatusCode)
	}
	var benches []benchmarkInfo
	if err := json.Unmarshal(body, &benches); err != nil {
		t.Fatal(err)
	}
	if len(benches) != 37 {
		t.Fatalf("benchmarks = %d, want 37", len(benches))
	}

	resp, body = getBody(t, ts.URL+"/v1/configs")
	if resp.StatusCode != 200 {
		t.Fatalf("configs status = %d", resp.StatusCode)
	}
	var cfgs []configInfo
	if err := json.Unmarshal(body, &cfgs); err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 36 {
		t.Fatalf("configs = %d, want 36", len(cfgs))
	}
	if cfgs[0].Label != "k1" || cfgs[35].Label != "k36" {
		t.Fatalf("config labels wrong: %s..%s", cfgs[0].Label, cfgs[35].Label)
	}
}

// metricValue extracts the value of a single-sample metric line.
func metricValue(t *testing.T, metricsText, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, metricsText)
	return 0
}

func TestAnalyzeAndCacheHit(t *testing.T) {
	ts, _ := testServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/analyze", smallAnalyze)
	if resp.StatusCode != 200 {
		t.Fatalf("first analyze: status %d: %s", resp.StatusCode, body)
	}
	var first analyzeResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Error("first request must not be served from cache")
	}
	if first.Program != "fibcall" || first.Config != "k1" || first.Tech != "45nm" {
		t.Fatalf("echoed identity wrong: %+v", first.Result)
	}
	if first.WCETOrig <= 0 || first.ACETOrig <= 0 || first.EnergyOrigPJ <= 0 {
		t.Fatalf("degenerate measurements: %+v", first.Result)
	}
	if first.WCETOpt > first.WCETOrig {
		t.Fatalf("WCET regressed: %d -> %d", first.WCETOrig, first.WCETOpt)
	}
	if len(first.CacheKey) != 64 {
		t.Fatalf("cache key %q is not a sha256 hex digest", first.CacheKey)
	}

	resp, body = postJSON(t, ts.URL+"/v1/analyze", smallAnalyze)
	if resp.StatusCode != 200 {
		t.Fatalf("second analyze: status %d", resp.StatusCode)
	}
	var second analyzeResponse
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Error("second identical request must be served from cache")
	}
	if second.CacheKey != first.CacheKey || second.WCETOpt != first.WCETOpt {
		t.Error("cached result differs from computed result")
	}

	_, mbody := getBody(t, ts.URL+"/metrics")
	m := string(mbody)
	if hits := metricValue(t, m, "ucp_cache_hits_total"); hits < 1 {
		t.Errorf("ucp_cache_hits_total = %g, want >= 1", hits)
	}
	if misses := metricValue(t, m, "ucp_cache_misses_total"); misses < 1 {
		t.Errorf("ucp_cache_misses_total = %g, want >= 1", misses)
	}
	if n := metricValue(t, m, "ucp_analyses_total"); n != 1 {
		t.Errorf("ucp_analyses_total = %g, want 1 (second request must not re-run)", n)
	}
	if !strings.Contains(m, `ucp_requests_total{route="POST /v1/analyze"} 2`) {
		t.Errorf("request counter missing or wrong:\n%s", m)
	}
	// The analysis-mode counters are process-wide (they also count other
	// tests in this binary), so assert presence and a sane floor: the one
	// executed analysis performed at least one from-scratch AnalyzeXHier.
	if full := metricValue(t, m, "ucp_analysis_full_reanalyses_total"); full < 1 {
		t.Errorf("ucp_analysis_full_reanalyses_total = %g, want >= 1", full)
	}
	if inc := metricValue(t, m, "ucp_analysis_incremental_hits_total"); inc < 0 {
		t.Errorf("ucp_analysis_incremental_hits_total = %g, want >= 0", inc)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	ts, _ := testServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown benchmark", `{"program":"nope","config":"k1","tech":"45nm"}`, 404},
		{"unknown config", `{"program":"fibcall","config":"k99","tech":"45nm"}`, 400},
		{"unknown tech", `{"program":"fibcall","config":"k1","tech":"28nm"}`, 400},
		{"negative runs", `{"program":"fibcall","config":"k1","tech":"45nm","runs":-2}`, 400},
		{"malformed json", `{"program":`, 400},
		{"unknown field", `{"program":"fibcall","config":"k1","tech":"45nm","frobnicate":1}`, 400},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/analyze", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		if !bytes.Contains(body, []byte(`"error"`)) {
			t.Errorf("%s: missing error body: %s", tc.name, body)
		}
	}

	// Wrong method on a valid route.
	resp, _ := getBody(t, ts.URL+"/v1/analyze")
	if resp.StatusCode != 405 {
		t.Errorf("GET /v1/analyze: status = %d, want 405", resp.StatusCode)
	}
}

func TestOversizedBody413(t *testing.T) {
	ts, _ := testServer(t, Config{MaxBodyBytes: 128})
	huge := `{"program":"fibcall","config":"k1","tech":"45nm","programs":"` +
		strings.Repeat("x", 4096) + `"}`
	resp, body := postJSON(t, ts.URL+"/v1/analyze", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413 (%s)", resp.StatusCode, body)
	}
}

// pollJob polls the job endpoint until it leaves the running states.
func pollJob(t *testing.T, url string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, body := getBody(t, url)
		if resp.StatusCode != 200 {
			t.Fatalf("job poll: status %d: %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == string(jobDone) || st.State == string(jobFailed) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after deadline (%d/%d cells)", st.State, st.Done, st.Total)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func TestSweepJobLifecycle(t *testing.T) {
	ts, _ := testServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/sweep",
		`{"programs":["fibcall","fac"],"configs":["k1","k2"],"techs":["45nm"],"runs":1,"validation_budget":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: status %d: %s", resp.StatusCode, body)
	}
	var sub struct {
		JobID     string `json:"job_id"`
		Cells     int    `json:"cells"`
		StatusURL string `json:"status_url"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.Cells != 4 {
		t.Fatalf("cells = %d, want 4", sub.Cells)
	}

	st := pollJob(t, ts.URL+sub.StatusURL)
	if st.State != string(jobDone) {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if st.Done != 4 || len(st.Results) != 4 {
		t.Fatalf("done = %d, results = %d, want 4", st.Done, len(st.Results))
	}
	// Deterministic (program, config, tech) request ordering.
	wantOrder := []string{"fibcall/k1", "fibcall/k2", "fac/k1", "fac/k2"}
	for i, r := range st.Results {
		if got := r.Program + "/" + r.Config; got != wantOrder[i] {
			t.Fatalf("results[%d] = %s, want %s", i, got, wantOrder[i])
		}
	}

	// A second identical sweep is answered fully from the cache.
	resp, body = postJSON(t, ts.URL+"/v1/sweep",
		`{"programs":["fibcall","fac"],"configs":["k1","k2"],"techs":["45nm"],"runs":1,"validation_budget":20}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second sweep: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	st = pollJob(t, ts.URL+sub.StatusURL)
	if st.State != string(jobDone) || st.CacheHits != 4 {
		t.Fatalf("second sweep: state=%s cache_hits=%d, want done/4", st.State, st.CacheHits)
	}

	// Unknown jobs are 404.
	resp, _ = getBody(t, ts.URL+"/v1/jobs/job-999999")
	if resp.StatusCode != 404 {
		t.Errorf("unknown job: status = %d, want 404", resp.StatusCode)
	}
}

func TestSweepValidation(t *testing.T) {
	ts, _ := testServer(t, Config{})
	resp, _ := postJSON(t, ts.URL+"/v1/sweep", `{"programs":["nope"],"configs":["k1"]}`)
	if resp.StatusCode != 404 {
		t.Errorf("unknown program in sweep: status = %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sweep", `{"programs":["fibcall"],"configs":["bogus"]}`)
	if resp.StatusCode != 400 {
		t.Errorf("bad config in sweep: status = %d, want 400", resp.StatusCode)
	}
}

// TestResultCachePutExistingKey pins put's re-publish contract: storing a
// key that is already resident must refresh its value and recency in
// place — one entry, never a duplicate node pushing a sibling out — and
// must be atomic under concurrent re-publishers of the same key.
func TestResultCachePutExistingKey(t *testing.T) {
	c := newResultCache(2)
	c.put("a", Result{Program: "a1"})
	c.put("b", Result{Program: "b"})

	// Re-put updates value + recency without growing the list.
	c.put("a", Result{Program: "a2"})
	if _, _, entries := c.stats(); entries != 2 {
		t.Fatalf("entries = %d after re-put, want 2", entries)
	}
	if v, ok := c.get("a"); !ok || v.Program != "a2" {
		t.Fatalf("a = %+v (%v), want the refreshed a2", v, ok)
	}
	// The re-put made "a" most recent, so inserting "c" evicts "b".
	c.put("c", Result{Program: "c"})
	if _, ok := c.get("b"); ok {
		t.Error("b survived; re-put did not refresh a's recency")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite being most recently re-put")
	}

	// Concurrent same-key re-puts: the entry count must stay exact and the
	// final value must be one of the published ones (run under -race).
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.put("a", Result{Program: fmt.Sprintf("a-%d", i)})
			}
		}(i)
	}
	wg.Wait()
	if _, _, entries := c.stats(); entries != 2 {
		t.Fatalf("entries = %d after concurrent re-puts, want 2", entries)
	}
	if v, ok := c.get("a"); !ok || !strings.HasPrefix(v.Program, "a-") {
		t.Fatalf("a = %+v (%v), want one of the concurrently published values", v, ok)
	}
}

func TestResultCacheLRUBound(t *testing.T) {
	c := newResultCache(2)
	c.put("a", Result{Program: "a"})
	c.put("b", Result{Program: "b"})
	if _, ok := c.get("a"); !ok { // promotes a
		t.Fatal("a missing")
	}
	c.put("c", Result{Program: "c"}) // evicts b (LRU)
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be resident")
	}
	hits, misses, entries := c.stats()
	if entries != 2 {
		t.Errorf("entries = %d, want 2", entries)
	}
	if hits != 3 || misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", hits, misses)
	}
}

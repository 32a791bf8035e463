package dist

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"maps"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/service"
)

// newWorker spins up one worker replica of the analysis service.
func newWorker(t *testing.T) *httptest.Server {
	t.Helper()
	return newWrappedWorker(t, func(h http.Handler) http.Handler { return h })
}

// newWrappedWorker is newWorker with wrap around the replica's handler.
func newWrappedWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	svc := service.New(service.Config{
		EnableWorker: true,
		Workers:      2,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	ts := httptest.NewServer(wrap(svc.Handler()))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts
}

// sweepOpts is the small matrix the tests sweep: 2 programs × 2 configs ×
// 1 technology = 4 cells, with the reduced-capacity runs on so the full
// Cell payload (including the Figure 5 series) crosses the wire.
func sweepOpts(exec experiment.CellExec) experiment.Options {
	return experiment.Options{
		Programs:         []string{"fibcall", "fac"},
		Configs:          []int{0, 1},
		Techs:            nil, // both — exercises tech round-tripping too
		Runs:             1,
		ValidationBudget: 20,
		Workers:          4,
		Exec:             exec,
	}
}

// csvOf renders a suite to CSV bytes.
func csvOf(t *testing.T, s *experiment.Suite) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistributedSweepMatchesLocal is the central determinism criterion: a
// sweep fanned across two workers renders byte-identical CSV to the same
// sweep run in-process.
func TestDistributedSweepMatchesLocal(t *testing.T) {
	local, err := experiment.Sweep(context.Background(), sweepOpts(nil))
	if err != nil {
		t.Fatal(err)
	}

	w1, w2 := newWorker(t), newWorker(t)
	coord, err := New(Options{Workers: []string{w1.URL, w2.URL}})
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := experiment.Sweep(context.Background(), sweepOpts(coord.Exec))
	if err != nil {
		t.Fatal(err)
	}

	localCSV, distCSV := csvOf(t, local), csvOf(t, distributed)
	if !bytes.Equal(localCSV, distCSV) {
		t.Errorf("distributed CSV differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			localCSV, distCSV)
	}
	if n := distCells.Value(); n < 8 {
		t.Errorf("ucp_dist_cells_total = %d, want >= 8 (2 programs x 2 configs x 2 techs)", n)
	}
}

// flakyWorker fronts a real worker but dies when asked for more than
// budget requests: from then on every connection is reset at the TCP
// level, including requests accepted before the death that are still
// running — exactly what a coordinator sees when a replica is SIGKILLed
// mid-sweep.
type flakyWorker struct {
	ts     *httptest.Server
	served atomic.Int64
	budget int64
}

func newFlakyWorker(t *testing.T, budget int64) *flakyWorker {
	t.Helper()
	svc := service.New(service.Config{
		EnableWorker: true,
		Workers:      2,
		Logger:       slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	f := &flakyWorker{budget: budget}
	inner := svc.Handler()
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.served.Add(1) <= f.budget {
			rec := httptest.NewRecorder()
			inner.ServeHTTP(rec, r)
			if f.served.Load() <= f.budget {
				maps.Copy(w.Header(), rec.Header())
				w.WriteHeader(rec.Code)
				w.Write(rec.Body.Bytes())
				return
			}
		}
		// Dead replica: reset the connection without an HTTP response.
		hj, ok := w.(http.Hijacker)
		if !ok {
			panic("test writer cannot hijack")
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			panic(err)
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		conn.Close()
	}))
	t.Cleanup(func() {
		f.ts.Close()
		svc.Close()
	})
	return f
}

// TestWorkerLossMidSweepRetriesAndCompletes is the issue's kill-a-worker
// criterion: one of two workers dies after its first cells; the
// coordinator retries the lost cells on the survivor and the sweep
// completes with the same deterministic CSV.
func TestWorkerLossMidSweepRetriesAndCompletes(t *testing.T) {
	local, err := experiment.Sweep(context.Background(), sweepOpts(nil))
	if err != nil {
		t.Fatal(err)
	}

	dying := newFlakyWorker(t, 2) // serves two cells, then "crashes"
	// The survivor holds each cell answer until the dying worker has been
	// asked past its budget (bounded, so a broken scenario fails below
	// instead of hanging). Least-loaded routing then must send the dying
	// worker a cell it cannot serve; a survivor free to answer at once can
	// absorb the whole remainder, and the failure path would never fire.
	healthy := newWrappedWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/worker/cell" {
				for deadline := time.Now().Add(10 * time.Second); dying.served.Load() <= dying.budget && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
			}
			h.ServeHTTP(w, r)
		})
	})
	retriesBefore := distRetries.Value()

	coord, err := New(Options{
		Workers:  []string{healthy.URL, dying.ts.URL},
		Backoff:  5 * time.Millisecond,
		Cooldown: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := experiment.Sweep(context.Background(), sweepOpts(coord.Exec))
	if err != nil {
		t.Fatalf("sweep must survive the worker loss: %v", err)
	}

	if got, want := csvOf(t, distributed), csvOf(t, local); !bytes.Equal(got, want) {
		t.Errorf("post-failover CSV differs from local:\n--- local ---\n%s\n--- distributed ---\n%s",
			want, got)
	}
	if d := distRetries.Value() - retriesBefore; d < 1 {
		t.Errorf("ucp_dist_retries_total delta = %d, want >= 1 (the dead worker's cells)", d)
	}
	if dying.served.Load() <= dying.budget {
		t.Errorf("dying worker served %d requests; the failure path never fired", dying.served.Load())
	}
}

// TestAllWorkersDownFailsAfterRetries: with every replica dead the cell
// exhausts its attempts and reports the transport failure.
func TestAllWorkersDownFailsAfterRetries(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // nothing listens; every dial is refused

	coord, err := New(Options{
		Workers:     []string{dead.URL},
		MaxAttempts: 2,
		Backoff:     time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = experiment.Sweep(context.Background(), experiment.Options{
		Programs: []string{"fibcall"},
		Configs:  []int{0},
		Runs:     1,
		Exec:     coord.Exec,
	})
	if err == nil {
		t.Fatal("sweep against only dead workers must fail")
	}
}

// TestPermanent4xxIsNotRetried: a worker that rejects the request (4xx)
// answers for every replica — retrying would repeat the same rejection.
func TestPermanent4xxIsNotRetried(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, `{"error":"unknown benchmark"}`, http.StatusNotFound)
	}))
	t.Cleanup(ts.Close)

	coord, err := New(Options{Workers: []string{ts.URL}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// One tech node, so the sweep is exactly one cell and one request.
	_, err = experiment.Sweep(context.Background(), experiment.Options{
		Programs: []string{"fibcall"},
		Configs:  []int{0},
		Techs:    []energy.Tech{energy.Tech45},
		Runs:     1,
		Exec:     coord.Exec,
	})
	if err == nil {
		t.Fatal("4xx from the worker must fail the cell")
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("worker saw %d requests, want exactly 1 (no retry on 4xx)", n)
	}
}

// TestCancellationStopsRetrying: a canceled sweep context aborts the
// backoff loop promptly instead of burning the remaining attempts.
func TestCancellationStopsRetrying(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()

	coord, err := New(Options{
		Workers:     []string{dead.URL},
		MaxAttempts: 100,
		Backoff:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, 1)
	go func() {
		defer wg.Done()
		_, err := experiment.Sweep(ctx, experiment.Options{
			Programs: []string{"fibcall"},
			Configs:  []int{0},
			Runs:     1,
			Exec:     coord.Exec,
		})
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("canceled sweep returned nil")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep did not notice cancellation (stuck in backoff)")
	}
	wg.Wait()
}

// TestNewValidation pins the constructor's contract.
func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("New with no workers must fail")
	}
	if _, err := New(Options{Workers: []string{"  "}}); err == nil {
		t.Error("New with a blank worker URL must fail")
	}
	c, err := New(Options{Workers: []string{"http://a/", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.workers[0].url != "http://a" {
		t.Errorf("trailing slash not trimmed: %q", c.workers[0].url)
	}
	if c.maxAttempts != 4 || c.backoff != 50*time.Millisecond || c.cooldown != time.Second {
		t.Errorf("defaults = %d/%v/%v", c.maxAttempts, c.backoff, c.cooldown)
	}
}

package dist

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/faults"
	"ucp/internal/malardalen"
)

// benchByName fetches one suite benchmark for direct Exec calls.
func benchByName(t *testing.T, name string) malardalen.Benchmark {
	t.Helper()
	for _, b := range malardalen.All() {
		if b.Name == name {
			return b
		}
	}
	t.Fatalf("no benchmark %q", name)
	return malardalen.Benchmark{}
}

// stateOf reads one worker's effective breaker state via the same snapshot
// the ucp_dist_breaker_state gauge renders.
func stateOf(t *testing.T, c *Coordinator, url string) breakerState {
	t.Helper()
	for _, s := range c.breakerStates() {
		if s.Label == url {
			return breakerState(int(s.Value))
		}
	}
	t.Fatalf("no worker %q in breaker snapshot", url)
	return 0
}

// waitState polls until the worker's breaker reaches want or the deadline
// passes.
func waitState(t *testing.T, c *Coordinator, url string, want breakerState, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		if got := stateOf(t, c, url); got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s breaker = %v, want %v after %v", url, stateOf(t, c, url), want, within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestBackoffJitterSpread (satellite): retry delays must stay inside
// [d/2, 3d/2) and actually spread — a degenerate constant would mean the
// thundering herd is back.
func TestBackoffJitterSpread(t *testing.T) {
	c := &Coordinator{tuning: tuning{backoff: 20 * time.Millisecond}}
	const attempt = 2 // base doubles once: d = 40ms, window [20ms, 60ms)
	d := c.backoff << (attempt - 1)
	lo, hi := d/2, d+d/2
	minSeen, maxSeen := hi, lo
	for i := 0; i < 500; i++ {
		got := c.retryDelay(attempt)
		if got < lo || got >= hi {
			t.Fatalf("retryDelay(%d) = %v outside [%v, %v)", attempt, got, lo, hi)
		}
		if got < minSeen {
			minSeen = got
		}
		if got > maxSeen {
			maxSeen = got
		}
	}
	// 500 draws over a 40ms window: demand at least a quarter of the span.
	if maxSeen-minSeen < d/4 {
		t.Fatalf("jitter spread %v over 500 draws is too narrow (min %v, max %v)", maxSeen-minSeen, minSeen, maxSeen)
	}
}

// TestBreakerOpensOnDeadWorkerAndRecovers is the acceptance check: a
// fault-injected dead worker's breaker opens within one probe interval,
// then walks open → half-open → closed after recovery. Cooldown is huge so
// every transition here is probe-driven and observable.
func TestBreakerOpensOnDeadWorkerAndRecovers(t *testing.T) {
	w := newWorker(t)
	const probe = 10 * time.Millisecond
	c, err := newCoordinator(Options{Workers: []string{w.URL}, ProbeInterval: probe},
		tuning{cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitState(t, c, w.URL, breakerClosed, time.Second)

	// Kill the worker from the prober's point of view: the dist.probe fault
	// site makes every probe fail without touching the real server.
	if err := faults.Arm("dist.probe:*=err"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(faults.Disarm)
	// "Within one probe interval": generous polling margin for CI, but the
	// mechanism is a single failed probe → open.
	waitState(t, c, w.URL, breakerOpen, 20*probe)

	// Recovery: the next good probe proves liveness (half-open), the one
	// after closes the breaker.
	faults.Disarm()
	waitState(t, c, w.URL, breakerHalfOpen, 20*probe)
	waitState(t, c, w.URL, breakerClosed, 20*probe)
}

// TestProbeEjectsSaturatedWorker: a readyz 503 (draining/saturated) is an
// ejection signal just like a dead socket.
func TestProbeEjectsSaturatedWorker(t *testing.T) {
	var sick atomic.Bool
	backend := newWorker(t)
	target, err := url.Parse(backend.URL)
	if err != nil {
		t.Fatal(err)
	}
	rp := httputil.NewSingleHostReverseProxy(target)
	proxy := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" && sick.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		rp.ServeHTTP(rw, r)
	}))
	t.Cleanup(proxy.Close)

	const probe = 10 * time.Millisecond
	c, err := newCoordinator(Options{Workers: []string{proxy.URL}, ProbeInterval: probe},
		tuning{cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	waitState(t, c, proxy.URL, breakerClosed, time.Second)
	sick.Store(true)
	waitState(t, c, proxy.URL, breakerOpen, 20*probe)
	sick.Store(false)
	waitState(t, c, proxy.URL, breakerHalfOpen, 20*probe)
	waitState(t, c, proxy.URL, breakerClosed, 20*probe)
}

// TestBreakerOpensFromCellFailures: without a prober, threshold
// consecutive transient cell failures trip the breaker, and pick then
// prefers the healthy sibling.
func TestBreakerOpensFromCellFailures(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusInternalServerError)
	}))
	t.Cleanup(dead.Close)
	healthy := newWorker(t)

	c, err := newCoordinator(Options{Workers: []string{dead.URL, healthy.URL}},
		tuning{threshold: 3, backoff: time.Millisecond, cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := benchByName(t, "fibcall")
	opts := experiment.Options{Runs: 1, ValidationBudget: 20, SkipReduced: true}
	// Drive cells until the dead worker has eaten its threshold; the
	// coordinator's retries land them on the healthy one, so every Exec
	// still succeeds.
	for i := 0; i < 4; i++ {
		if _, err := c.Exec(context.Background(), b, 0, energy.Tech45, opts); err != nil {
			t.Fatalf("Exec %d: %v", i, err)
		}
	}
	if got := stateOf(t, c, dead.URL); got != breakerOpen {
		t.Fatalf("dead worker breaker = %v, want open", got)
	}
	if got := stateOf(t, c, healthy.URL); got != breakerClosed {
		t.Fatalf("healthy worker breaker = %v, want closed", got)
	}
	// With the breaker open, pick must avoid the dead worker outright.
	for i := 0; i < 5; i++ {
		w := c.pick(nil)
		if w.url == dead.URL {
			t.Fatal("pick chose an open-breaker worker while a closed one existed")
		}
		w.release()
	}
}

// TestHedgedDispatchRacesStraggler: a slow worker's cell is re-issued to
// the fast sibling after the fixed hedge delay; the fast result wins and
// the hedge counter moves.
func TestHedgedDispatchRacesStraggler(t *testing.T) {
	fast := newWorker(t)
	slow := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		// A straggler, not a corpse: it would answer eventually (with a
		// retryable 502), but hedging should win long before.
		select {
		case <-time.After(2 * time.Second):
		case <-r.Context().Done():
			return
		}
		rw.WriteHeader(http.StatusBadGateway)
	}))
	t.Cleanup(slow.Close)

	c, err := newCoordinator(Options{Workers: []string{slow.URL, fast.URL}, Hedge: true},
		tuning{hedgeDelay: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	b := benchByName(t, "fibcall")
	opts := experiment.Options{Runs: 1, ValidationBudget: 20, SkipReduced: true}
	before := distHedges.Value()
	// Two Execs: round-robin rotation guarantees the slow worker is picked
	// first at least once, and that dispatch must hedge onto the fast one.
	for i := 0; i < 2; i++ {
		start := time.Now()
		cell, err := c.Exec(context.Background(), b, 0, energy.Tech45, opts)
		if err != nil {
			t.Fatalf("Exec %d: %v", i, err)
		}
		if cell.Program != "fibcall" {
			t.Fatalf("Exec %d returned cell for %q", i, cell.Program)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Fatalf("Exec %d took %v; hedging should have beaten the 2s straggler", i, elapsed)
		}
	}
	if got := distHedges.Value() - before; got < 1 {
		t.Fatalf("hedges delta = %d, want >= 1", got)
	}
}

// TestHedgeRequiresTwoWorkers: with one worker, hedging silently disables
// rather than double-hitting the only replica.
func TestHedgeRequiresTwoWorkers(t *testing.T) {
	w := newWorker(t)
	c, err := newCoordinator(Options{Workers: []string{w.URL}, Hedge: true}, tuning{hedgeDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, on := c.hedgeAfter(); on {
		t.Fatal("hedging enabled with a single worker")
	}
}

// TestAdaptiveHedgeDelay: the p99 window arms only after enough samples
// and floors at minHedgeDelay.
func TestAdaptiveHedgeDelay(t *testing.T) {
	c := &Coordinator{hedge: true, workers: []*worker{{url: "a"}, {url: "b"}}}
	if _, on := c.hedgeAfter(); on {
		t.Fatal("adaptive hedge armed with an empty latency window")
	}
	for i := 0; i < minHedgeSamples; i++ {
		c.lat.observe(time.Millisecond)
	}
	d, on := c.hedgeAfter()
	if !on {
		t.Fatal("adaptive hedge not armed after enough samples")
	}
	if d != minHedgeDelay {
		t.Fatalf("hedge delay = %v, want floor %v for fast cells", d, minHedgeDelay)
	}
	c.lat.observe(500 * time.Millisecond)
	if d, _ := c.hedgeAfter(); d != 500*time.Millisecond {
		t.Fatalf("hedge delay = %v, want the p99 straggler 500ms", d)
	}
}

// TestCoordinatorCloseStopsProber: Close must end the probe goroutine and
// be idempotent.
func TestCoordinatorCloseStopsProber(t *testing.T) {
	w := newWorker(t)
	c, err := New(Options{Workers: []string{w.URL}, ProbeInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { c.Close(); c.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
}

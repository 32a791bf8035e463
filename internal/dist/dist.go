// Package dist fans sweep cells out across worker replicas of the
// analysis service. A Coordinator satisfies experiment.CellExec — the
// remote-execution seam — by POSTing each cell to a worker's
// /v1/worker/cell endpoint, so experiment.Sweep, the batch API, and
// ucp-bench become distributed by swapping one function value and nothing
// about their determinism changes: results land by index, output stays
// byte-identical to a local run.
//
// The failure model is crash-stop workers behind an unreliable network.
// Health is managed actively: each worker sits behind a three-state
// circuit breaker (closed → open on consecutive failures, open → half-open
// after a cooldown or a successful probe, half-open → closed on the next
// success), and an optional background prober GETs every worker's /readyz
// on an interval so a dead or saturated replica is ejected within one
// probe period instead of after it has eaten a cell. Transient failures
// (transport errors, 5xx) are retried on another replica with jittered
// exponential backoff; 4xx responses are permanent (the request itself is
// wrong; another replica would answer the same); context cancellation
// stops retrying immediately. Straggler cells can be hedged: after a
// p99-based delay the cell is re-issued to a second healthy worker, the
// first result wins, and the loser is canceled — results are
// deterministic, so hedging never changes an answer.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucp/internal/cache"
	"ucp/internal/energy"
	"ucp/internal/experiment"
	"ucp/internal/faults"
	"ucp/internal/interrupt"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
)

// Options configures a Coordinator.
type Options struct {
	// Workers lists worker base URLs ("http://host:port"); at least one is
	// required. Trailing slashes are trimmed.
	Workers []string
	// ProbeInterval enables the background health prober: every interval,
	// each worker's /readyz is checked; a failure opens its breaker at
	// once, a success walks it open → half-open → closed. Zero disables
	// probing (breakers are then driven by cell traffic alone). Stop the
	// prober with Close.
	ProbeInterval time.Duration
	// Hedge enables hedged dispatch: a cell still unanswered after the
	// hedge delay (the p99 of recent cell latencies, once minHedgeSamples
	// have been observed, with a floor of minHedgeDelay) is re-issued to a
	// second healthy worker; the first result wins and the loser's request
	// is canceled.
	Hedge bool
}

// The dispatch defaults every Coordinator built by New runs with.
const (
	// defaultMaxAttempts bounds tries per cell across all workers.
	defaultMaxAttempts = 4
	// defaultBackoff is the first retry's base delay; it doubles per
	// attempt and is jittered uniformly over [d/2, 3d/2) so synchronized
	// retriers do not thunder onto a recovering worker in lockstep.
	defaultBackoff = 50 * time.Millisecond
	// defaultCooldown is how long an open breaker holds before the worker
	// is allowed one half-open trial. Open workers are still used when
	// every worker is open — a degraded replica beats failing the sweep.
	defaultCooldown = time.Second
	// defaultFailureThreshold is the consecutive-failure count that trips
	// a closed breaker open. A failure during half-open reopens
	// immediately regardless.
	defaultFailureThreshold = 3
)

// tuning holds the dispatch knobs New fixes at their defaults. The
// in-package tests pass their own to newCoordinator, so every value is in
// place before the prober goroutine starts; a zero field takes its
// default.
type tuning struct {
	maxAttempts int
	backoff     time.Duration
	cooldown    time.Duration
	threshold   int
	// hedgeDelay fixes the hedge delay instead of the adaptive p99.
	hedgeDelay time.Duration
}

// Cell-level counters are process-global (one coordinator per process in
// practice; tests read deltas), matching the pool's panic counter.
var (
	distCells = obs.NewCounter("ucp_dist_cells_total",
		"Cells dispatched to workers (completed, all attempts counted once).")
	distRetries = obs.NewCounter("ucp_dist_retries_total",
		"Cell attempts retried after a worker failure.")
	distWorkerFailures = obs.NewCounterVec("ucp_dist_worker_failures_total",
		"Transport errors and 5xx responses, by worker.", "worker")
	distHedges = obs.NewCounter("ucp_dist_hedges_total",
		"Straggler cells re-issued to a second worker (hedged dispatch).")
	distCellSeconds = obs.NewHistogramVec("ucp_dist_cell_seconds",
		"Successful cell dispatch latency by worker, in seconds.", "worker")
)

// breakerState is a worker's circuit-breaker position. The numeric values
// are the ucp_dist_breaker_state gauge encoding — monotone in badness.
type breakerState int

const (
	breakerClosed   breakerState = 0 // healthy, full traffic
	breakerHalfOpen breakerState = 1 // cooled down or probe-recovered: one trial allowed
	breakerOpen     breakerState = 2 // ejected; selection avoids it
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// worker is one replica plus its selection and breaker state.
type worker struct {
	url string

	mu       sync.Mutex
	inflight int
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last opened
	trial    bool      // a half-open trial is in flight
}

// effState returns the effective breaker state: an open breaker whose
// cooldown has elapsed counts as half-open (one trial allowed) without
// waiting for a probe to promote it. Caller holds w.mu.
func (w *worker) effStateLocked(now time.Time, cooldown time.Duration) breakerState {
	if w.state == breakerOpen && now.Sub(w.openedAt) >= cooldown {
		return breakerHalfOpen
	}
	return w.state
}

func (w *worker) effState(now time.Time, cooldown time.Duration) breakerState {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.effStateLocked(now, cooldown)
}

// onSuccess closes the breaker: any successful cell or probe proves the
// worker back.
func (w *worker) onSuccess() {
	w.mu.Lock()
	w.state = breakerClosed
	w.fails = 0
	w.trial = false
	w.mu.Unlock()
}

// onFailure advances the breaker on one transient cell failure: a closed
// breaker opens after threshold consecutive failures; a half-open trial
// failing — or any failure while open — (re)opens immediately.
func (w *worker) onFailure(now time.Time, cooldown time.Duration, threshold int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.effStateLocked(now, cooldown) {
	case breakerClosed:
		w.fails++
		if w.fails >= threshold {
			w.state = breakerOpen
			w.openedAt = now
			w.trial = false
		}
	default: // half-open trial failed, or already open: (re)start the clock
		w.state = breakerOpen
		w.openedAt = now
		w.fails = 0
		w.trial = false
	}
}

// onProbeFailure ejects the worker immediately — a failed readiness probe
// is authoritative, no threshold applies.
func (w *worker) onProbeFailure(now time.Time) {
	w.mu.Lock()
	w.state = breakerOpen
	w.openedAt = now
	w.fails = 0
	w.trial = false
	w.mu.Unlock()
}

// onProbeSuccess walks the breaker one step toward closed: open →
// half-open (the probe proves liveness; one real cell must still succeed),
// half-open → closed, closed stays closed with the failure streak reset.
func (w *worker) onProbeSuccess(now time.Time, cooldown time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	switch w.effStateLocked(now, cooldown) {
	case breakerOpen:
		w.state = breakerHalfOpen
		w.trial = false
	case breakerHalfOpen:
		w.state = breakerClosed
		w.fails = 0
		w.trial = false
	default:
		w.fails = 0
	}
}

func (w *worker) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

// Coordinator distributes cells over the configured workers. Its Exec
// method is an experiment.CellExec. Close stops the background prober (a
// no-op when none was configured).
type Coordinator struct {
	tuning
	// client issues the cell requests and probes: a dedicated client with
	// no global timeout — per-cell bounds come from the request context.
	client  *http.Client
	workers []*worker
	hedge   bool
	rr      atomic.Uint64 // rotates tie-breaking across workers
	lat     latencyWindow

	stopProbe context.CancelFunc
	probeDone chan struct{}
}

// New validates the options and builds a Coordinator.
func New(o Options) (*Coordinator, error) { return newCoordinator(o, tuning{}) }

// newCoordinator is New with the dispatch knobs given: zero fields of t
// take their defaults.
func newCoordinator(o Options, t tuning) (*Coordinator, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("dist: no workers configured")
	}
	c := &Coordinator{tuning: t, client: &http.Client{}, hedge: o.Hedge}
	if c.maxAttempts <= 0 {
		c.maxAttempts = defaultMaxAttempts
	}
	if c.backoff <= 0 {
		c.backoff = defaultBackoff
	}
	if c.cooldown <= 0 {
		c.cooldown = defaultCooldown
	}
	if c.threshold <= 0 {
		c.threshold = defaultFailureThreshold
	}
	for _, u := range o.Workers {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("dist: empty worker URL")
		}
		c.workers = append(c.workers, &worker{url: u})
	}
	// The gauge pulls from this coordinator; re-registration rebinds, so
	// the newest coordinator in a process owns the family.
	obs.NewGaugeVecFunc("ucp_dist_breaker_state",
		"Per-worker circuit-breaker state (0 closed, 1 half-open, 2 open).",
		"worker", c.breakerStates)
	if o.ProbeInterval > 0 {
		ctx, cancel := context.WithCancel(context.Background())
		c.stopProbe = cancel
		c.probeDone = make(chan struct{})
		go c.probeLoop(ctx, o.ProbeInterval)
	}
	return c, nil
}

// Close stops the background health prober and waits for it to exit. Safe
// to call when no prober runs, and more than once.
func (c *Coordinator) Close() {
	if c.stopProbe == nil {
		return
	}
	c.stopProbe()
	<-c.probeDone
}

// breakerStates snapshots every worker's effective breaker state for the
// ucp_dist_breaker_state gauge (and tests).
func (c *Coordinator) breakerStates() []obs.Sample {
	now := time.Now()
	out := make([]obs.Sample, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, obs.Sample{Label: w.url, Value: float64(w.effState(now, c.cooldown))})
	}
	return out
}

// probeLoop drives the health prober: one immediate round, then one per
// tick, until Close.
func (c *Coordinator) probeLoop(ctx context.Context, every time.Duration) {
	defer close(c.probeDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		for _, w := range c.workers {
			c.probe(ctx, w, every)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// probe checks one worker's /readyz and drives its breaker: failure (or an
// injected "dist.probe" fault, keyed by worker URL) opens it immediately;
// success walks it open → half-open → closed. A readyz 503 — draining or
// saturated — counts as failure: the replica asked not to receive work.
func (c *Coordinator) probe(ctx context.Context, w *worker, every time.Duration) {
	timeout := every
	if timeout > 2*time.Second {
		timeout = 2 * time.Second
	}
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	if err := faults.Fire(pctx, "dist.probe", w.url); err != nil {
		w.onProbeFailure(time.Now())
		return
	}
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, w.url+"/readyz", nil)
	if err != nil {
		w.onProbeFailure(time.Now())
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return // Close raced the probe; not the worker's fault
		}
		w.onProbeFailure(time.Now())
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxErrorBody))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		w.onProbeSuccess(time.Now(), c.cooldown)
	} else {
		w.onProbeFailure(time.Now())
	}
}

// permanentError is a worker answer that retrying cannot change.
type permanentError struct {
	status int
	body   string
}

func (e *permanentError) Error() string {
	return fmt.Sprintf("worker rejected cell (%d): %s", e.status, e.body)
}

// Exec ships one cell to a worker and returns its measurement. It is the
// experiment.CellExec implementation: breaker-healthiest least-loaded
// worker first, jittered exponential backoff across replicas on transient
// failure, optional hedging for stragglers.
func (c *Coordinator) Exec(ctx context.Context, b malardalen.Benchmark, cfgIdx int, tech energy.Tech, o experiment.Options) (experiment.Cell, error) {
	ctx, span := obs.Start(ctx, "dist.cell")
	span.Attr("program", b.Name)
	span.Attr("config", cache.ConfigID(cfgIdx))
	defer span.End()

	req := experiment.CellRequest{
		CellSpec: experiment.CellSpec{
			Program:          b.Name,
			Config:           cache.ConfigID(cfgIdx),
			Tech:             tech.String(),
			Policy:           o.Policy.String(),
			Runs:             o.Runs,
			ValidationBudget: o.ValidationBudget,
		},
		SkipReduced: o.SkipReduced,
		Explain:     o.Explain,
	}
	if o.L2 != (cache.Config{}) {
		req.L2 = &experiment.L2Request{
			Assoc:         o.L2.Assoc,
			BlockBytes:    o.L2.BlockBytes,
			CapacityBytes: o.L2.CapacityBytes,
			Policy:        o.L2.Policy.String(),
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return experiment.Cell{}, err
	}

	var lastErr error
	for attempt := 0; attempt < c.maxAttempts; attempt++ {
		if attempt > 0 {
			distRetries.Inc()
			span.Attr("retries", attempt)
			// Jittered exponential backoff, interruptible: a canceled sweep
			// must not sit out its backoff before noticing.
			t := time.NewTimer(c.retryDelay(attempt))
			select {
			case <-ctx.Done():
				t.Stop()
				return experiment.Cell{}, interrupt.Cause(ctx)
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return experiment.Cell{}, interrupt.Cause(ctx)
		}

		cell, err := c.attempt(ctx, body, attempt)
		if err == nil {
			distCells.Inc()
			return cell, nil
		}
		if interrupt.Is(err) || ctx.Err() != nil {
			return experiment.Cell{}, interrupt.Wrap(err)
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return experiment.Cell{}, err
		}
		lastErr = err
	}
	return experiment.Cell{}, fmt.Errorf("dist: cell %s/%s/%s failed after %d attempts: %w",
		b.Name, cache.ConfigID(cfgIdx), tech, c.maxAttempts, lastErr)
}

// retryDelay is the backoff before attempt n (n >= 1): the base doubles
// per attempt and the result is spread uniformly over [d/2, 3d/2), so a
// herd of cells that failed together does not retry together.
func (c *Coordinator) retryDelay(attempt int) time.Duration {
	d := c.backoff << (attempt - 1)
	return d/2 + rand.N(d)
}

// settle does the failure/success accounting for one post against one
// worker: success closes the breaker and feeds the latency window;
// transient failure advances it. Permanent (4xx) answers and interrupts
// are not the worker's fault.
func (c *Coordinator) settle(w *worker, err error, elapsed time.Duration) {
	if err == nil {
		w.onSuccess()
		c.lat.observe(elapsed)
		distCellSeconds.With(w.url).Observe(elapsed.Seconds())
		return
	}
	if interrupt.Is(err) {
		return
	}
	var perm *permanentError
	if errors.As(err, &perm) {
		return
	}
	distWorkerFailures.With(w.url).Inc()
	w.onFailure(time.Now(), c.cooldown, c.threshold)
}

// attempt runs one (possibly hedged) dispatch. Without hedging it is a
// single pick-post-settle. With hedging, a cell still unanswered after the
// hedge delay is raced against a second healthy worker on a shared
// cancelable context: the first success cancels the other request, whose
// canceled error is never charged to its worker.
func (c *Coordinator) attempt(ctx context.Context, body []byte, attemptNo int) (experiment.Cell, error) {
	w := c.pick(nil)
	start := time.Now()
	delay, hedge := c.hedgeAfter()
	if !hedge {
		cell, err := c.dispatch(ctx, w, body, attemptNo, false)
		c.settle(w, err, time.Since(start))
		return cell, err
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser once a winner returns

	type outcome struct {
		cell experiment.Cell
		err  error
		w    *worker
	}
	ch := make(chan outcome, 2)
	launch := func(lw *worker, hedged bool) {
		go func() {
			cell, err := c.dispatch(actx, lw, body, attemptNo, hedged)
			ch <- outcome{cell: cell, err: err, w: lw}
		}()
	}
	launch(w, false)
	pending := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var lastErr error
	for {
		select {
		case <-timer.C:
			if w2 := c.pickHealthy(w); w2 != nil {
				distHedges.Inc()
				pending++
				launch(w2, true)
			}
		case o := <-ch:
			pending--
			if o.err == nil {
				c.settle(o.w, nil, time.Since(start))
				return o.cell, nil
			}
			if interrupt.Is(o.err) && ctx.Err() == nil && actx.Err() != nil {
				// The hedge race canceled this attempt after its sibling won;
				// that branch returned already. Reaching here means the
				// sibling lost too — treat as transient, not worker fault.
				lastErr = o.err
			} else {
				c.settle(o.w, o.err, 0)
				var perm *permanentError
				if errors.As(o.err, &perm) || interrupt.Is(o.err) || ctx.Err() != nil {
					return experiment.Cell{}, o.err
				}
				lastErr = o.err
			}
			if pending == 0 {
				return experiment.Cell{}, lastErr
			}
		case <-ctx.Done():
			return experiment.Cell{}, interrupt.Cause(ctx)
		}
	}
}

// hedgeAfter decides whether this dispatch hedges and after how long:
// never with hedging off or fewer than two workers; at the fixed
// hedgeDelay when one is tuned; otherwise at the p99 of recent latencies
// once the window has enough samples to mean something.
func (c *Coordinator) hedgeAfter() (time.Duration, bool) {
	if !c.hedge || len(c.workers) < 2 {
		return 0, false
	}
	if c.hedgeDelay > 0 {
		return c.hedgeDelay, true
	}
	d, ok := c.lat.p99()
	if !ok {
		return 0, false
	}
	if d < minHedgeDelay {
		d = minHedgeDelay
	}
	return d, true
}

// pick selects the worker with the best (breaker state, inflight) pair:
// closed beats half-open beats open, fewest in-flight cells within a
// class; when every worker is open, the least-loaded one is used anyway.
// Ties rotate round-robin so a serial caller still spreads cells across
// replicas instead of pinning the first URL. A half-open worker admits
// only one trial at a time — a second pick ranks it as open. The returned
// worker's inflight count is already incremented; post releases it.
// exclude (may be nil) is skipped — the hedge must find a different
// worker.
func (c *Coordinator) pick(exclude *worker) *worker {
	now := time.Now()
	off := int(c.rr.Add(1)) % len(c.workers)
	var best *worker
	var bestState breakerState
	bestLoad := 0
	for i := range c.workers {
		w := c.workers[(off+i)%len(c.workers)]
		if w == exclude {
			continue
		}
		w.mu.Lock()
		st := w.effStateLocked(now, c.cooldown)
		if st == breakerHalfOpen && w.trial {
			st = breakerOpen // trial slot taken; treat as ejected for now
		}
		load := w.inflight
		w.mu.Unlock()
		if best == nil || st < bestState || (st == bestState && load < bestLoad) {
			best, bestState, bestLoad = w, st, load
		}
	}
	if best == nil {
		return nil
	}
	best.mu.Lock()
	best.inflight++
	if best.effStateLocked(now, c.cooldown) == breakerHalfOpen {
		best.trial = true
	}
	best.mu.Unlock()
	return best
}

// pickHealthy returns a closed-breaker worker other than exclude (the
// hedge target), or nil when none qualifies — hedging onto a sick worker
// would amplify load exactly when it hurts most.
func (c *Coordinator) pickHealthy(exclude *worker) *worker {
	now := time.Now()
	off := int(c.rr.Add(1)) % len(c.workers)
	var best *worker
	bestLoad := 0
	for i := range c.workers {
		w := c.workers[(off+i)%len(c.workers)]
		if w == exclude {
			continue
		}
		w.mu.Lock()
		st := w.effStateLocked(now, c.cooldown)
		load := w.inflight
		w.mu.Unlock()
		if st != breakerClosed {
			continue
		}
		if best == nil || load < bestLoad {
			best, bestLoad = w, load
		}
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.mu.Unlock()
	}
	return best
}

// maxErrorBody bounds how much of a worker error response is kept for the
// error message.
const maxErrorBody = 4 << 10

// dispatch runs one post under a "dist.attempt" span, so retries and
// hedges appear as sibling spans under the cell's dispatch span, tagged
// with the attempt ordinal and whether this is the hedged duplicate. The
// worker's returned span tree (present when the request carried a
// traceparent) is grafted under the attempt span — the stitch that makes
// one trace span both processes.
func (c *Coordinator) dispatch(ctx context.Context, w *worker, body []byte, attemptNo int, hedged bool) (experiment.Cell, error) {
	ctx, sp := obs.Start(ctx, "dist.attempt")
	sp.Attr("worker", w.url)
	sp.Attr("attempt", attemptNo)
	sp.Attr("hedge", hedged)
	defer sp.End()
	cell, tree, err := c.post(ctx, w, body)
	if err != nil {
		sp.Attr("error", true)
	}
	sp.AttachTree(tree)
	return cell, err
}

// post performs one attempt against one worker. The current span identity
// and request ID travel with the request (traceparent / X-Request-Id), so
// the worker's trace and logs correlate with the coordinator's.
func (c *Coordinator) post(ctx context.Context, w *worker, body []byte) (experiment.Cell, *obs.SpanTree, error) {
	defer w.release()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.url+"/v1/worker/cell", bytes.NewReader(body))
	if err != nil {
		return experiment.Cell{}, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := obs.Traceparent(ctx); tp != "" {
		req.Header.Set("traceparent", tp)
	}
	if rid := obs.RequestIDFrom(ctx); rid != "" {
		req.Header.Set("X-Request-Id", rid)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return experiment.Cell{}, nil, interrupt.Cause(ctx)
		}
		return experiment.Cell{}, nil, fmt.Errorf("dist: %s: %w", w.url, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
		var env experiment.CellResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			// A torn response (worker died mid-write) is transient: the
			// cell is deterministic, another replica recomputes it.
			return experiment.Cell{}, nil, fmt.Errorf("dist: %s: decode cell: %w", w.url, err)
		}
		return env.Cell, env.Trace, nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return experiment.Cell{}, nil, &permanentError{status: resp.StatusCode, body: strings.TrimSpace(string(msg))}
	default:
		// 5xx: the worker is draining, overloaded, or broke on this cell;
		// 503/504 in particular mean "try a sibling".
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return experiment.Cell{}, nil, fmt.Errorf("dist: %s: status %d: %s",
			w.url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
}

// minHedgeSamples is how many completed cells the latency window needs
// before an adaptive p99 is trusted; minHedgeDelay floors the delay so a
// burst of cache-hit-fast cells cannot make hedging fire on everything.
const (
	minHedgeSamples = 8
	minHedgeDelay   = 25 * time.Millisecond
	latWindowSize   = 128
)

// latencyWindow is a bounded ring of recent cell latencies feeding the
// adaptive hedge delay.
type latencyWindow struct {
	mu   sync.Mutex
	ring [latWindowSize]time.Duration
	pos  int
	n    int
}

func (l *latencyWindow) observe(d time.Duration) {
	l.mu.Lock()
	l.ring[l.pos] = d
	l.pos = (l.pos + 1) % latWindowSize
	if l.n < latWindowSize {
		l.n++
	}
	l.mu.Unlock()
}

// p99 is the nearest-rank 99th percentile over the window; ok is false
// until minHedgeSamples observations exist.
func (l *latencyWindow) p99() (time.Duration, bool) {
	l.mu.Lock()
	if l.n < minHedgeSamples {
		l.mu.Unlock()
		return 0, false
	}
	buf := make([]time.Duration, l.n)
	copy(buf, l.ring[:l.n])
	l.mu.Unlock()
	sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
	rank := (99*len(buf) + 99) / 100 // ceil(0.99n), 1-based nearest rank
	if rank > len(buf) {
		rank = len(buf)
	}
	return buf[rank-1], true
}

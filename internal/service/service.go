// Package service exposes the full unlocked-cache-prefetching pipeline
// (assemble → VIVU expansion → abstract interpretation → prefetch
// optimization → simulation → energy model) as a long-running
// JSON-over-HTTP service. Exact cache analysis is expensive and heavily
// re-requested — the same (program, configuration, technology) cells recur
// across sweeps and clients — so the server memoizes every answer in a
// bounded, content-addressed result cache keyed by the program fingerprint
// and the analysis options, and schedules cells onto a bounded worker pool
// shared with internal/experiment.
//
// Endpoints:
//
//	POST /v1/analyze    one use case, synchronous
//	POST /v1/sweep      a use-case matrix, asynchronous (returns a job ID)
//	POST /v1/batch      a use-case list or matrix as one job, streamed back
//	GET  /v1/jobs/{id}  job status and, when done, the ordered results
//	GET  /v1/jobs/{id}/events  live NDJSON progress stream for one job
//	GET  /v1/benchmarks the Mälardalen suite
//	GET  /v1/configs    the Table 2 configurations
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining or saturated)
//	GET  /metrics       Prometheus text counters
//
// The execution layer is fault-tolerant (DESIGN.md §10): analyses are
// cooperatively cancellable (request deadlines, job timeouts, shutdown), a
// panicking analysis fails only its own cell, and admission control sheds
// work (429/503) before it can pile up behind the bounded worker pool.
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ucp/internal/cache"
	"ucp/internal/experiment"
	"ucp/internal/flight"
	"ucp/internal/journal"
	"ucp/internal/malardalen"
	"ucp/internal/obs"
	"ucp/internal/pool"
	"ucp/internal/store"
)

// Config tunes the server. The zero value is production-usable.
type Config struct {
	// Workers bounds concurrently running analysis cells across all
	// requests and jobs (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the content-addressed result cache
	// (0 = 512 entries).
	CacheEntries int
	// MaxBodyBytes bounds request bodies; larger requests get 413
	// (0 = 1 MiB).
	MaxBodyBytes int64
	// JobTimeout cancels a sweep job that has run longer
	// (0 = 15 minutes).
	JobTimeout time.Duration
	// AnalyzeTimeout bounds one synchronous /v1/analyze request; the
	// in-flight analysis is cancelled cooperatively when it expires and the
	// request gets 504 (0 = 2 minutes). Clients may lower — never raise —
	// the bound per request with ?timeout=30s.
	AnalyzeTimeout time.Duration
	// MaxQueuedJobs bounds sweep and batch jobs admitted but not yet
	// finished (queued + running). Beyond it, POST /v1/sweep and
	// POST /v1/batch get 429 with a Retry-After header instead of growing
	// the backlog (0 = 32).
	MaxQueuedJobs int
	// Store, when non-nil, adds a persistent second tier beneath the
	// in-memory result cache: results survive restarts and are shared with
	// every replica pointing at the same directory. The Server does not
	// close the store; its owner (cmd/ucp-serve, tests) does, after Close.
	Store *store.Store
	// Journal, when non-nil, makes sweep jobs durable: every submission,
	// completed cell, and terminal state is appended to a per-job journal,
	// and New replays the directory — finished jobs come back queryable,
	// unfinished jobs resume under their original IDs with only their
	// incomplete cells re-executing (DESIGN.md §14). The Server does not
	// own the directory's lifecycle; cmd/ucp-serve opens it.
	Journal *journal.Journal
	// EnableWorker exposes POST /v1/worker/cell, the raw cell-execution
	// endpoint a distributed coordinator (internal/dist) fans sweep cells
	// out to. Off by default: the endpoint returns full experiment.Cell
	// payloads and belongs on interior replicas, not public edges.
	EnableWorker bool
	// CellExec, when non-nil, replaces local pipeline execution for
	// /v1/analyze, sweeps, and batches — the coordinator configuration: a
	// front replica that caches, dedups, and admits, while the heavy
	// analysis runs on worker replicas (see internal/dist.Coordinator).
	CellExec experiment.CellExec
	// TraceSink, when non-nil, durably records traces and job lifecycle
	// events as NDJSON (journal.OpenSink): every request records spans, and the
	// tree is persisted when the request failed, ran slow, asked for
	// ?trace=1, or won the TraceSample coin flip — tail-based keeping on a
	// head-recorded trace. The Server does not close the sink; its owner
	// (cmd/ucp-serve, tests) does, after Close.
	TraceSink *journal.Sink
	// TraceSample is the sampling rate in [0,1] for persisting traces of
	// ordinary successful requests to TraceSink. Zero keeps only failed,
	// slow, and explicitly traced requests.
	TraceSample float64
	// Logger receives one structured line per request (nil = slog default).
	Logger *slog.Logger
}

// Server is the analysis service. Create with New, expose via Handler,
// stop background jobs with Close.
type Server struct {
	cfg     Config
	pool    *pool.Pool
	cache   *tieredCache
	flight  *flight.Group[Result]
	jobs    *jobStore
	reg     *obs.Registry
	metrics *metrics
	mux     *http.ServeMux
	log     *slog.Logger
	reqID   atomic.Int64
	sampler *obs.Sampler

	// benches indexes the suite by name; the contained Programs are
	// treated as read-only and shared across workers (the optimizer
	// clones before mutating).
	benches      map[string]malardalen.Benchmark
	benchNames   []string
	configLabels []string

	baseCtx  context.Context
	stop     context.CancelFunc
	wg       sync.WaitGroup
	draining atomic.Bool
}

// New builds a ready-to-serve Server.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 15 * time.Minute
	}
	if cfg.AnalyzeTimeout <= 0 {
		cfg.AnalyzeTimeout = 2 * time.Minute
	}
	if cfg.MaxQueuedJobs <= 0 {
		cfg.MaxQueuedJobs = 32
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	// The journal's persisted high-water mark seeds the ID sequence, so a
	// restarted server never re-issues an ID — even one whose journal file
	// was pruned long ago.
	seqSeed := 0
	if cfg.Journal != nil {
		seqSeed = cfg.Journal.Seq()
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:     cfg,
		pool:    pool.New(cfg.Workers),
		cache:   newTieredCache(cfg.CacheEntries, cfg.Store),
		jobs:    newJobStore(seqSeed),
		reg:     reg,
		metrics: newMetrics(reg),
		log:     cfg.Logger,
		sampler: obs.NewSampler(cfg.TraceSample),
		benches: map[string]malardalen.Benchmark{},
	}
	s.registerPulls()
	for _, b := range malardalen.All() {
		s.benches[b.Name] = b
		s.benchNames = append(s.benchNames, b.Name)
	}
	for i := range cache.Table2() {
		s.configLabels = append(s.configLabels, cache.ConfigID(i))
	}
	s.baseCtx, s.stop = context.WithCancel(context.Background())
	// Flights run on the server's lifetime, not any one request's: a
	// waiter that disconnects detaches without cancelling the execution
	// the remaining waiters are riding. Drain cancels baseCtx and with it
	// every in-flight execution.
	s.flight = flight.New[Result](func() (context.Context, context.CancelFunc) {
		return context.WithTimeout(s.baseCtx, s.cfg.AnalyzeTimeout)
	})
	s.mux = s.routes()
	// Crash recovery runs last, once the pool, flight group, and base
	// context exist: unfinished journaled jobs restart here, before the
	// listener comes up, so a client polling its old job ID never sees a
	// gap.
	s.recoverJobs()
	return s
}

// Handler returns the HTTP handler: the API routes wrapped in request
// logging, metrics, and the body size limit.
func (s *Server) Handler() http.Handler {
	var h http.Handler = s.mux
	h = http.MaxBytesHandler(h, s.cfg.MaxBodyBytes)
	return s.logging(h)
}

// Drain stops admitting work: /readyz flips to 503 so load balancers stop
// routing here, new sweeps and analyses are refused, and every running
// job's context is cancelled so in-flight cells unwind cooperatively. Call
// it before shutting the HTTP listener down; already-accepted requests
// still get their (error) responses.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.stop()
}

// Close drains (if not already draining) and waits for the job goroutines
// to exit. Call after the HTTP server has shut down.
func (s *Server) Close() {
	s.Drain()
	s.wg.Wait()
}

// isDraining reports whether Drain or Close has been called.
func (s *Server) isDraining() bool { return s.draining.Load() }

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// streaming handlers can flush through the recorder.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// ctxKey keys values this package stores in request contexts.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// requestID returns the request ID the logging middleware assigned, or ""
// outside a request context.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// maxRequestIDLen bounds adopted X-Request-Id headers; anything longer (or
// carrying non-printable bytes) is discarded and the request gets a minted
// ID, so a hostile client cannot inject log lines or bloat span attrs.
const maxRequestIDLen = 128

// sanitizeRequestID validates an incoming X-Request-Id header. It returns
// "" (mint a fresh one) unless the header is non-empty, bounded, and made
// of printable non-space ASCII.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > maxRequestIDLen {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' {
			return ""
		}
	}
	return id
}

// slowTraceThreshold is the tail-based keep rule for request traces: a
// request at least this slow is persisted to the trace sink regardless of
// the sampling decision — the slow outliers are exactly the traces an
// operator goes looking for.
const slowTraceThreshold = 2 * time.Second

// persistTrace writes one finished request's span tree to the configured
// trace sink. keep bypasses the head sampler (failed, slow, or explicitly
// traced requests are always persisted); otherwise the sampler decides.
// Sink failures degrade observability, never the request.
func (s *Server) persistTrace(reqID string, tree *obs.SpanTree, keep bool) {
	sink := s.cfg.TraceSink
	if sink == nil || tree == nil {
		return
	}
	if !keep && !s.sampler.Sample() {
		return
	}
	// The request context may already be cancelled (client gone, deadline
	// hit) — exactly the traces worth keeping — so the write runs on a
	// background context.
	if err := sink.WriteTrace(context.Background(), reqID, tree); err != nil {
		s.log.Warn("trace sink write failed", "trace_id", tree.TraceID, "err", err)
	}
}

// logging assigns each request an ID, emits one structured line per
// request, and feeds the per-route request counter. An ID arriving in the
// X-Request-Id request header is adopted verbatim — a coordinator forwards
// its own ID to workers, so one grep correlates a request across every
// replica's log — otherwise a fresh one is minted. The ID rides the
// request context (handlers attach it to trace spans, internal/dist
// forwards it downstream) and is echoed in the X-Request-Id response
// header so a client can quote it when reporting a failure.
func (s *Server) logging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := sanitizeRequestID(r.Header.Get("X-Request-Id"))
		if id == "" {
			id = fmt.Sprintf("req-%06d", s.reqID.Add(1))
		}
		w.Header().Set("X-Request-Id", id)
		ctx := context.WithValue(r.Context(), ctxKeyRequestID, id)
		r = r.WithContext(obs.WithRequestID(ctx, id))
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		// Normalize the parameterized routes so /metrics label cardinality
		// stays bounded.
		path := r.URL.Path
		if strings.HasPrefix(path, "/v1/jobs/") {
			if strings.HasSuffix(path, "/events") {
				path = "/v1/jobs/{id}/events"
			} else {
				path = "/v1/jobs/{id}"
			}
		}
		s.metrics.countRequest(r.Method + " " + path)
		s.log.Info("request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"duration_ms", time.Since(start).Milliseconds(),
			"remote", r.RemoteAddr,
		)
	})
}

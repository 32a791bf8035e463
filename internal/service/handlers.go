package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ucp/internal/cache"
	"ucp/internal/cliutil"
	"ucp/internal/core"
	"ucp/internal/interrupt"
	"ucp/internal/obs"
	"ucp/internal/pool"
)

// routes wires the API. Method-qualified patterns (Go 1.22 ServeMux) give
// 405 on wrong methods for free.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/benchmarks", s.handleBenchmarks)
	mux.HandleFunc("GET /v1/configs", s.handleConfigs)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	if s.cfg.EnableWorker {
		mux.HandleFunc("POST /v1/worker/cell", s.handleWorkerCell)
	}
	return mux
}

// writeJSON renders v with a status code; encoding errors are logged, not
// recoverable (headers are gone).
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.log.Error("encode response", "err", err)
	}
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// unavailable writes an admission-control 503 with the same Retry-After
// hint the 429 path carries: a load balancer or client backing off for a
// beat will find either a drained-and-restarted replica or a sibling.
func (s *Server) unavailable(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "30")
	s.writeError(w, http.StatusServiceUnavailable, format, args...)
}

// tooMany writes an admission-control 429. Every 429 carries Retry-After —
// the sweep path always did, and this helper keeps any future refusal path
// from forgetting the header (clients use it to back off instead of
// hammering a saturated server).
func (s *Server) tooMany(w http.ResponseWriter, format string, args ...any) {
	w.Header().Set("Retry-After", "30")
	s.writeError(w, http.StatusTooManyRequests, format, args...)
}

// decodeBody parses the JSON request body into v, translating the body
// size limit into 413 and malformed JSON into 400. It reports whether
// decoding succeeded; on failure the error response has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		s.writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// resolveErr maps a resolution error onto its HTTP status.
func (s *Server) resolveErr(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		s.writeError(w, he.status, "%s", he.msg)
		return
	}
	s.writeError(w, http.StatusInternalServerError, "%v", err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz reports whether the server is accepting new work: 503 while
// draining (shutdown has begun) or while the job queue is saturated, 200
// otherwise. Liveness (/healthz) stays 200 in both 503 cases — the process
// is healthy, it just should not receive new traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.jobs.activeJobs() >= s.cfg.MaxQueuedJobs {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.renderMetrics(w); err != nil {
		s.log.Error("render metrics", "err", err)
	}
}

// benchmarkInfo is one /v1/benchmarks entry.
type benchmarkInfo struct {
	Name         string `json:"name"`
	ID           string `json:"id"`
	Instructions int    `json:"instructions"`
	Blocks       int    `json:"blocks"`
	Loops        int    `json:"loops"`
	Note         string `json:"note"`
}

func (s *Server) handleBenchmarks(w http.ResponseWriter, r *http.Request) {
	out := make([]benchmarkInfo, 0, len(s.benchNames))
	for _, name := range s.benchNames {
		b := s.benches[name]
		out = append(out, benchmarkInfo{
			Name:         b.Name,
			ID:           b.ID,
			Instructions: b.Prog.NInstr(),
			Blocks:       len(b.Prog.Blocks),
			Loops:        len(b.Prog.Loops),
			Note:         b.Note,
		})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// configInfo is one /v1/configs entry. Policies lists the replacement
// policies the configuration supports (every Table 2 associativity is a
// power of two, so all three policies apply to all entries; the field keeps
// clients from hard-coding that).
type configInfo struct {
	Label         string   `json:"label"`
	Assoc         int      `json:"assoc"`
	BlockBytes    int      `json:"block_bytes"`
	CapacityBytes int      `json:"capacity_bytes"`
	Sets          int      `json:"sets"`
	Policies      []string `json:"policies"`
	// L2Valid reports whether the configuration forms a valid hierarchy
	// with the L2 given via the l2_* query parameters; present only when
	// such an L2 was supplied.
	L2Valid *bool `json:"l2_valid,omitempty"`
}

// configsL2 parses the optional l2_assoc / l2_block_bytes /
// l2_capacity_bytes (and l2_policy) query of /v1/configs. The parameters
// describe a candidate L2; each listed configuration then reports whether
// it can serve as the L1 underneath it.
func configsL2(r *http.Request) (*cache.Config, error) {
	q := r.URL.Query()
	if q.Get("l2_assoc") == "" && q.Get("l2_block_bytes") == "" && q.Get("l2_capacity_bytes") == "" {
		return nil, nil
	}
	num := func(name string) (int, error) {
		v := q.Get(name)
		if v == "" {
			return 0, errorf(400, "missing %s (an l2_* query needs the full geometry)", name)
		}
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			return 0, errorf(400, "bad %s %q", name, v)
		}
		return n, nil
	}
	assoc, err := num("l2_assoc")
	if err != nil {
		return nil, err
	}
	bb, err := num("l2_block_bytes")
	if err != nil {
		return nil, err
	}
	capacity, err := num("l2_capacity_bytes")
	if err != nil {
		return nil, err
	}
	pol, err := cliutil.Policy(q.Get("l2_policy"))
	if err != nil {
		return nil, errorf(400, "l2_policy: %v", err)
	}
	cfg := cache.Config{Assoc: assoc, BlockBytes: bb, CapacityBytes: capacity, Policy: pol}
	if err := cfg.Valid(); err != nil {
		return nil, errorf(400, "l2: %v", err)
	}
	return &cfg, nil
}

func (s *Server) handleConfigs(w http.ResponseWriter, r *http.Request) {
	l2, err := configsL2(r)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	cfgs := cache.Table2()
	out := make([]configInfo, 0, len(cfgs))
	for i, c := range cfgs {
		var policies []string
		for _, p := range cache.Policies() {
			pc := c
			pc.Policy = p
			if pc.Valid() == nil {
				policies = append(policies, p.String())
			}
		}
		info := configInfo{
			Label:         cache.ConfigID(i),
			Assoc:         c.Assoc,
			BlockBytes:    c.BlockBytes,
			CapacityBytes: c.CapacityBytes,
			Sets:          c.NumSets(),
			Policies:      policies,
		}
		if l2 != nil {
			ok := (cache.Hierarchy{L1: c, L2: *l2}).Valid() == nil
			info.L2Valid = &ok
		}
		out = append(out, info)
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.unavailable(w, "server is draining")
		return
	}
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	uc, err := s.resolve(req)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	timeout, err := s.analyzeTimeout(r)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// ?trace=1 turns on the observability surface for this one request: a
	// span recorder captures the pipeline's timing tree and the optimizer
	// produces its per-prefetch-decision explain report. Tracing bypasses
	// the result-cache read (a cache hit has no pipeline to trace) — and
	// the singleflight group, whose shared execution could not carry a
	// per-request recorder — but still publishes its Result for later
	// plain requests.
	if r.URL.Query().Get("trace") == "1" {
		s.handleAnalyzeTraced(ctx, w, r, uc)
		return
	}

	// With a trace sink configured, every plain request records spans too;
	// whether the tree is *persisted* is decided at the tail — failures and
	// slow requests always, the rest through the head sampler — so the rare
	// bad request is kept without paying disk for the bulk (DESIGN.md §15).
	// The flight body runs on the server's context, so only handler-level
	// outcomes land in this tree; ?trace=1 remains the deep-pipeline view.
	var rec *obs.Recorder
	reqStart := time.Now()
	if s.cfg.TraceSink != nil {
		rec = obs.NewRecorder("analyze")
		rec.Root().Attr("request_id", requestID(r.Context()))
		rec.Root().Attr("program", uc.bench.Name)
		ctx = rec.Install(ctx)
	}
	finishTrace := func(failed bool) {
		if rec == nil {
			return
		}
		rec.Release()
		keep := failed || time.Since(reqStart) >= slowTraceThreshold
		s.persistTrace(requestID(r.Context()), rec.Tree(), keep)
	}

	// Plain requests go cache → singleflight → pipeline. The cache read
	// here is the fast path; the flight leader re-checks it, so a result
	// published between the two reads is still served without execution.
	key := s.keyFor(uc)
	if v, ok := s.cache.get(ctx, key); ok {
		rec.Root().Attr("cached", true)
		finishTrace(false)
		s.writeJSON(w, http.StatusOK, analyzeResponse{Result: v, Cached: true})
		return
	}
	// The flight leader occupies exactly one pool slot however many
	// identical requests pile up behind it; the herd waits slot-free. The
	// execution runs on the server's context (see New), so a waiter that
	// disconnects or times out detaches without cancelling the flight.
	res, joined, err := s.flight.Do(ctx, key, func(fctx context.Context) (Result, error) {
		var out Result
		perr := s.pool.ForEach(fctx, 1, func(ctx context.Context, _ int) error {
			r, _, _, aerr := s.analyzeExplain(ctx, uc, false)
			out = r
			return aerr
		})
		return out, perr
	})
	if joined {
		s.metrics.countFlightMerged()
	}
	if err != nil {
		rec.Root().Attr("error", err.Error())
		finishTrace(true)
		s.analyzeErr(w, err)
		return
	}
	rec.Root().Attr("coalesced", joined)
	finishTrace(false)
	s.writeJSON(w, http.StatusOK, analyzeResponse{Result: res, Coalesced: joined})
}

// handleAnalyzeTraced is the ?trace=1 path: a private recorder, a direct
// pool slot (no flight — the span tree belongs to this request alone),
// and the explain report in the response.
func (s *Server) handleAnalyzeTraced(ctx context.Context, w http.ResponseWriter, r *http.Request, uc useCase) {
	rec := obs.NewRecorder("analyze")
	rec.Root().Attr("request_id", requestID(r.Context()))
	rec.Root().Attr("program", uc.bench.Name)
	defer rec.Release()
	ctx = rec.Install(ctx)
	var (
		res       Result
		decisions []core.Decision
		cached    bool
	)
	perr := s.pool.ForEach(ctx, 1, func(ctx context.Context, _ int) error {
		var aerr error
		res, decisions, cached, aerr = s.analyzeExplain(ctx, uc, true)
		return aerr
	})
	if perr != nil {
		rec.Root().Attr("error", perr.Error())
		rec.Release()
		// An explicitly traced request is always persisted, success or not.
		s.persistTrace(requestID(r.Context()), rec.Tree(), true)
		s.analyzeErr(w, perr)
		return
	}
	rec.Release()
	tree := rec.Tree()
	s.persistTrace(requestID(r.Context()), tree, true)
	resp := analyzeResponse{Result: res, Cached: cached, Trace: tree, Explain: decisions}
	s.writeJSON(w, http.StatusOK, resp)
}

// analyzeTimeout resolves the per-request deadline: the configured
// AnalyzeTimeout, which ?timeout= (a Go duration) may lower but never
// raise — a client cannot buy itself more of the server's time than the
// operator allowed.
func (s *Server) analyzeTimeout(r *http.Request) (time.Duration, error) {
	timeout := s.cfg.AnalyzeTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			return 0, errorf(400, "bad timeout %q: %v", v, err)
		}
		if d <= 0 {
			return 0, errorf(400, "timeout must be positive")
		}
		if d < timeout {
			timeout = d
		}
	}
	return timeout, nil
}

// analyzeErr maps an analysis failure onto its HTTP status: a recovered
// panic is 500 with a sanitized body (the stack goes to the log only), a
// deadline is 504, a cancellation (client gone or server draining) is 503,
// and anything else keeps the plain-500 behavior.
func (s *Server) analyzeErr(w http.ResponseWriter, err error) {
	var pe *pool.PanicError
	switch {
	case errors.As(err, &pe):
		s.log.Error("analysis panicked", "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
		s.writeError(w, http.StatusInternalServerError, "internal panic during analysis")
	case errors.Is(err, interrupt.ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		s.writeError(w, http.StatusGatewayTimeout, "analysis deadline exceeded")
	case errors.Is(err, interrupt.ErrCanceled), errors.Is(err, context.Canceled):
		s.writeError(w, http.StatusServiceUnavailable, "analysis canceled")
	default:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// analyzeResponse wraps a Result with its cache provenance and, for
// ?trace=1 requests, the span tree and the optimizer's explain report.
type analyzeResponse struct {
	Result
	Cached bool `json:"cached"`
	// Coalesced marks a response served by joining another request's
	// in-flight identical execution (singleflight) rather than by a cache
	// hit or an execution of its own.
	Coalesced bool            `json:"coalesced,omitempty"`
	Trace     *obs.SpanTree   `json:"trace,omitempty"`
	Explain   []core.Decision `json:"explain,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.unavailable(w, "server is draining")
		return
	}
	var req SweepRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cases, err := s.resolveSweep(req)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	j, pruned, err := s.jobs.tryAdd(req, cases, s.cfg.MaxQueuedJobs)
	if err != nil {
		// The backlog is bounded; tell the client when trying again is
		// likely to succeed rather than letting jobs pile up unbounded.
		s.metrics.countJobRejected()
		s.tooMany(w, "job queue full (%d unfinished jobs); retry later", s.cfg.MaxQueuedJobs)
		return
	}
	// ?trace=1 records the whole sweep under one per-job recorder; the
	// stitched tree (local spans plus grafted remote worker trees) rides
	// the final job status and the trace sink.
	if r.URL.Query().Get("trace") == "1" {
		j.traced = true
	}
	s.removeJournals(pruned)
	s.journalSubmit(j)
	s.startSweep(j)
	s.writeJSON(w, http.StatusAccepted, map[string]any{
		"job_id":     j.id,
		"cells":      len(cases),
		"status_url": "/v1/jobs/" + j.id,
		"events_url": "/v1/jobs/" + j.id + "/events",
	})
}

// lookupJob resolves the {id} path value to a job, answering the 404
// itself when there is none. An ID that was real once but whose job has
// been pruned from the bounded store is "expired" rather than "unknown";
// the body shapes are pinned by tests — clients distinguish "expired,
// results gone" from a typo'd ID.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	j, ok, expired := s.jobs.get(id)
	switch {
	case ok:
		return j, true
	case expired:
		s.writeError(w, http.StatusNotFound, "job %q expired", id)
	default:
		s.writeError(w, http.StatusNotFound, "unknown job %q", id)
	}
	return nil, false
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		s.writeJSON(w, http.StatusOK, j.status())
	}
}

// handleJobEvents streams one job's progress as NDJSON: the event history
// first (a late subscriber sees the whole story so far), then live events
// as cells start and finish, closed by the terminal job_finished line. The
// stream ends when the job reaches a terminal state or the client
// disconnects; polling /v1/jobs/{id} stays the cheap alternative.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		streamJob(w, r, j, func(ev jobEvent) any { return ev })
	}
}

// streamJob writes j's event log to w as NDJSON from its first event,
// following it live until the job is terminal or the client goes away.
// The log is complete, so a slow reader falls behind but loses nothing.
// render maps each event to its line; a nil line is skipped.
func streamJob(w http.ResponseWriter, r *http.Request, j *job, render func(jobEvent) any) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	for cursor, more := 0, true; more; {
		// Flushing before each wait sends the headers at once and every
		// written line before the stream goes quiet; a writer that cannot
		// flush still gets the whole stream, only later.
		_ = rc.Flush()
		var evs []jobEvent
		evs, more = j.next(r.Context(), cursor)
		cursor += len(evs)
		for _, ev := range evs {
			if line := render(ev); line != nil {
				if err := enc.Encode(line); err != nil {
					return
				}
			}
		}
	}
}

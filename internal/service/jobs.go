package service

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"ucp/internal/cache"
	"ucp/internal/experiment"
	"ucp/internal/interrupt"
	"ucp/internal/journal"
	"ucp/internal/obs"
	"ucp/internal/pool"
)

// SweepRequest submits a program × configuration × technology × policy
// matrix. An empty list selects the full axis (all 37 programs, all 36
// Table 2 configurations, both technologies) — except Policies, where empty
// means LRU only, so pre-existing sweeps keep their size and meaning.
type SweepRequest struct {
	Programs         []string `json:"programs,omitempty"`
	Configs          []string `json:"configs,omitempty"`
	Techs            []string `json:"techs,omitempty"`
	Policies         []string `json:"policies,omitempty"`
	Runs             int      `json:"runs,omitempty"`
	ValidationBudget int      `json:"validation_budget,omitempty"`
	// L2 backs every swept configuration with a second cache level;
	// omitted keeps the single-level matrix.
	L2 *experiment.L2Request `json:"l2,omitempty"`
}

type jobState string

const (
	jobQueued  jobState = "queued"
	jobRunning jobState = "running"
	jobDone    jobState = "done"
	jobFailed  jobState = "failed"
)

// JobStatus is the wire view of a sweep job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
	Done  int    `json:"done"`
	// CacheHits counts cells answered from the result cache.
	CacheHits int `json:"cache_hits"`
	// Failed counts cells whose analysis errored or panicked; those cells
	// carry a zero Result and an entry in CellErrors, the rest of the job
	// completes normally.
	Failed     int       `json:"failed,omitempty"`
	Error      string    `json:"error,omitempty"`
	CreatedAt  time.Time `json:"created_at"`
	FinishedAt time.Time `json:"finished_at,omitzero"`
	// Resumed marks a job that survived a server restart: it was replayed
	// from the job journal and continued under its original ID.
	Resumed bool `json:"resumed,omitempty"`
	// CellErrors lists up to maxCellErrors per-cell failure messages
	// ("program/config/tech: reason"); Failed carries the full count.
	CellErrors []string `json:"cell_errors,omitempty"`
	// Results lists one entry per cell, in deterministic (program,
	// config, technology) request order; present only when State is done.
	Results []Result `json:"results,omitempty"`
	// Trace is the job's stitched span tree — coordinator spans with every
	// remote worker subtree grafted under its dispatch span — present once
	// the job finished and only when the sweep was submitted with ?trace=1.
	Trace *obs.SpanTree `json:"trace,omitempty"`
}

// maxCellErrors bounds the per-job failure log so a pathological sweep
// cannot grow its status payload without bound.
const maxCellErrors = 16

// job is one asynchronous sweep: a list of resolved use cases worked
// through the server's shared pool. A /v1/batch request is a job too, one
// that is never journaled and lives no longer than its request.
type job struct {
	id    string
	cases []useCase
	// req is the original sweep request, kept so the journal's submit
	// record can re-resolve the exact same cell list on resume (zero for a
	// batch, which is never journaled).
	req SweepRequest
	// cancel stops the job's run; startSweep sets it before the run
	// starts.
	cancel context.CancelFunc

	mu         sync.Mutex
	state      jobState
	resumed    bool
	done       int
	cacheHits  int
	failed     int
	cellErrors []string
	errMsg     string
	created    time.Time
	finished   time.Time
	// results holds one entry per cell; a cell's entry is stored before
	// its cell_finished event is published.
	results []Result
	// jw journals this job's progress; nil when the server runs without a
	// journal (the historical, memory-only behavior).
	jw *journal.Writer
	// have/pre carry journal-replayed cells into startSweep on resume:
	// have[i] means cell i already completed in a previous process and
	// pre[i] is its result — it is answered with zero pipeline runs.
	have []bool
	pre  []Result
	// traced marks a ?trace=1 submission: startSweep installs a per-job
	// recorder and the finished tree lands in trace (and the trace sink).
	traced bool
	trace  *obs.SpanTree
	// events is the job's complete progress log; readers follow it by
	// cursor (next). wake, when non-nil, is closed by the next publish to
	// wake every waiting reader.
	events []jobEvent
	wake   chan struct{}
	// durSumMS/durCount estimate the mean cell duration for the ETA in
	// progress events; resume pre-seeds them from the journal's recorded
	// per-cell durations, so a restarted job's first ETA is already sane.
	durSumMS int64
	durCount int
}

// jobEvent is one NDJSON line of the GET /v1/jobs/{id}/events stream.
// Event is one of cells_resumed, cell_started, cell_finished, cell_failed,
// or job_finished (the terminal line; State carries "done" or "failed").
// Done/Remaining snapshot overall progress at emission time; EtaMS is the
// naive remaining×mean-duration forecast, present once at least one cell
// duration (live or journal-seeded) is known.
type jobEvent struct {
	Event     string    `json:"event"`
	Time      time.Time `json:"time"`
	Cell      *int      `json:"cell,omitempty"`
	Program   string    `json:"program,omitempty"`
	Config    string    `json:"config,omitempty"`
	Tech      string    `json:"tech,omitempty"`
	Cached    bool      `json:"cached,omitempty"`
	DurMS     int64     `json:"dur_ms,omitempty"`
	Error     string    `json:"error,omitempty"`
	Done      int       `json:"done"`
	Failed    int       `json:"failed,omitempty"`
	Remaining int       `json:"remaining"`
	EtaMS     int64     `json:"eta_ms,omitempty"`
	State     string    `json:"state,omitempty"`
}

// publishLocked timestamps ev, appends it to the event log, and wakes
// every waiting reader. The log needs no cap: a job has at most
// maxSweepCells cells and emits two events per cell plus lifecycle lines.
// Callers hold j.mu.
func (j *job) publishLocked(ev jobEvent) {
	ev.Time = time.Now().UTC()
	j.events = append(j.events, ev)
	if j.wake != nil {
		close(j.wake)
		j.wake = nil
	}
}

// publishProgressLocked stamps ev with the job's progress snapshot and
// publishes it. A terminal event carries no ETA. Callers hold j.mu.
func (j *job) publishProgressLocked(ev jobEvent) {
	ev.Done, ev.Failed, ev.Remaining, ev.EtaMS = j.progressLocked()
	if ev.State != "" {
		ev.EtaMS = 0
	}
	j.publishLocked(ev)
}

// cellEvent starts a progress event of the given kind for cell i.
func (j *job) cellEvent(kind string, i int) jobEvent {
	uc := j.cases[i]
	return jobEvent{
		Event: kind, Cell: &i,
		Program: uc.bench.Name, Config: cache.ConfigID(uc.cfgIdx), Tech: uc.tech.String(),
	}
}

// next returns the events logged after the first cursor ones, waiting for
// a publish while there are none and the job is live. more is false once
// the returned events end a terminal job's log, or when ctx ends first.
// The returned events are never mutated afterwards.
func (j *job) next(ctx context.Context, cursor int) (evs []jobEvent, more bool) {
	for {
		j.mu.Lock()
		evs = j.events[cursor:]
		terminal := j.state == jobDone || j.state == jobFailed
		if len(evs) > 0 || terminal {
			j.mu.Unlock()
			return evs, !terminal
		}
		if j.wake == nil {
			j.wake = make(chan struct{})
		}
		wake := j.wake
		j.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false
		}
	}
}

// wait blocks until the job is terminal.
func (j *job) wait() {
	for cursor, more := 0, true; more; {
		var evs []jobEvent
		evs, more = j.next(context.Background(), cursor)
		cursor += len(evs)
	}
}

// progressLocked snapshots done/failed/remaining and the ETA for an event.
// Callers hold j.mu.
func (j *job) progressLocked() (done, failed, remaining int, etaMS int64) {
	done, failed = j.done, j.failed
	remaining = len(j.cases) - done - failed
	if remaining < 0 {
		remaining = 0
	}
	if j.durCount > 0 {
		etaMS = int64(remaining) * (j.durSumMS / int64(j.durCount))
	}
	return done, failed, remaining, etaMS
}

// status snapshots the job for the wire. Results are shared read-only once
// the job is done (they are never mutated afterwards).
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:         j.id,
		State:      string(j.state),
		Total:      len(j.cases),
		Done:       j.done,
		CacheHits:  j.cacheHits,
		Failed:     j.failed,
		Error:      j.errMsg,
		CreatedAt:  j.created,
		FinishedAt: j.finished,
		Resumed:    j.resumed,
		CellErrors: j.cellErrors,
	}
	if j.state == jobDone {
		st.Results = j.results
	}
	if j.state == jobDone || j.state == jobFailed {
		st.Trace = j.trace
	}
	return st
}

// failCellLocked records one cell's failure without failing the job.
// Callers hold j.mu.
func (j *job) failCellLocked(uc useCase, err error) {
	j.failed++
	if len(j.cellErrors) < maxCellErrors {
		j.cellErrors = append(j.cellErrors,
			fmt.Sprintf("%v: %v", uc, err))
	}
}

// maxFinishedJobs bounds the job store: once exceeded, the oldest finished
// jobs (and their result payloads) are dropped. Queued and running jobs
// are never pruned.
const maxFinishedJobs = 256

// jobStore indexes jobs by ID and assigns sequential IDs.
type jobStore struct {
	mu    sync.Mutex
	seq   int
	jobs  map[string]*job
	order []string // creation order, for pruning
}

// newJobStore builds a store whose sequence counter starts at seed — the
// journal's persisted high-water mark, so IDs stay monotonic across
// restarts and the expired-404 contract keeps holding after recovery.
func newJobStore(seed int) *jobStore {
	return &jobStore{seq: seed, jobs: map[string]*job{}}
}

// errJobQueueFull is tryAdd's admission refusal; the handler maps it to
// 429 with a Retry-After header.
var errJobQueueFull = fmt.Errorf("job queue full")

// tryAdd registers a job unless the store already holds maxActive
// unfinished (queued or running) jobs. The admission check and the insert
// happen under one lock so concurrent submissions cannot both squeeze past
// the bound. pruned lists the IDs of finished jobs dropped to make room;
// the caller removes their journal files outside the lock.
func (s *jobStore) tryAdd(req SweepRequest, cases []useCase, maxActive int) (j *job, pruned []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.activeLocked() >= maxActive {
		return nil, nil, errJobQueueFull
	}
	s.seq++
	j = &job{
		id:      fmt.Sprintf("job-%06d", s.seq),
		req:     req,
		cases:   cases,
		state:   jobQueued,
		created: time.Now().UTC(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return j, s.prune(), nil
}

// adopt inserts a journal-replayed job under its original ID, advancing
// the sequence counter past it. Duplicate IDs are a replay bug and are
// ignored rather than clobbering a live job.
func (s *jobStore) adopt(j *job) (pruned []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.jobs[j.id]; exists {
		return nil
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(j.id, "job-")); err == nil && n > s.seq {
		s.seq = n
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	return s.prune()
}

// activeJobs counts unfinished (queued or running) jobs, for /readyz.
func (s *jobStore) activeJobs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.activeLocked()
}

// activeLocked counts unfinished jobs. Caller holds s.mu.
func (s *jobStore) activeLocked() int {
	active := 0
	for _, id := range s.order {
		if j := s.jobs[id]; j != nil {
			if st := j.currentState(); st == jobQueued || st == jobRunning {
				active++
			}
		}
	}
	return active
}

// prune drops the oldest finished jobs beyond maxFinishedJobs and returns
// their IDs so the caller can unlink their journals. Caller holds s.mu.
func (s *jobStore) prune() (pruned []string) {
	finished := 0
	for _, id := range s.order {
		if st := s.jobs[id]; st != nil && (st.currentState() == jobDone || st.currentState() == jobFailed) {
			finished++
		}
	}
	if finished <= maxFinishedJobs {
		return nil
	}
	keep := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if j != nil && finished > maxFinishedJobs && (j.currentState() == jobDone || j.currentState() == jobFailed) {
			delete(s.jobs, id)
			pruned = append(pruned, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	return pruned
}

// remove drops a job from the store without touching its journal. The
// ID then reads as expired.
func (s *jobStore) remove(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.jobs, id)
	s.order = slices.DeleteFunc(s.order, func(o string) bool { return o == id })
}

func (j *job) currentState() jobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// get looks a job up by ID. expired reports that the ID was once assigned
// but the job has since been pruned from the store — job IDs are handed
// out sequentially ("job-%06d") and only leave the map through prune, so
// an absent ID at or below the current sequence number must have been
// pruned. Handlers use the distinction to answer a stable "expired" 404
// instead of pretending the job never existed.
func (s *jobStore) get(id string) (j *job, ok, expired bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[id]; ok {
		return j, true, false
	}
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "job-")); err == nil &&
		strings.HasPrefix(id, "job-") && n >= 1 && n <= s.seq {
		return nil, false, true
	}
	return nil, false, false
}

// counts tallies jobs by state for /metrics.
func (s *jobStore) counts() map[jobState]int {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.mu.Unlock()
	out := map[jobState]int{jobQueued: 0, jobRunning: 0, jobDone: 0, jobFailed: 0}
	for _, j := range jobs {
		out[j.currentState()]++
	}
	return out
}

// startSweep launches an admitted job on the shared worker pool. The job's
// context inherits the server's base context (cancelled on shutdown) and
// the configured per-job timeout. This is the service's only fan-out loop
// over cells: /v1/sweep and /v1/batch jobs both run here.
//
// Failure isolation is per cell: a cell whose analysis errors or panics is
// recorded as failed (with a bounded error log) and its siblings continue —
// one poisoned use case cannot take down a 2664-cell sweep. Interruptions
// are different: a job-timeout or shutdown cancellation must stop the whole
// job, so typed interrupt errors propagate and fail the job with the cause.
func (s *Server) startSweep(j *job) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.JobTimeout)
	j.cancel = cancel

	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer cancel()

		// A ?trace=1 job carries its own recorder for the whole sweep: every
		// cell's spans — including dist dispatch attempts and the grafted
		// remote worker trees — accumulate into one tree under the job root.
		var rec *obs.Recorder
		j.mu.Lock()
		if j.traced {
			rec = obs.NewRecorder("sweep")
			rec.Root().Attr("job", j.id)
			rec.Root().Attr("cells", len(j.cases))
			ctx = rec.Install(ctx)
		}
		j.state = jobRunning
		j.results = make([]Result, len(j.cases))
		// Cells the journal already answered (resume): copy their results
		// in and never touch the pipeline for them again.
		replayedCells := 0
		for i, ok := range j.have {
			if ok {
				j.results[i] = j.pre[i]
				replayedCells++
			}
		}
		if replayedCells > 0 {
			j.publishProgressLocked(jobEvent{Event: "cells_resumed"})
		}
		j.mu.Unlock()
		s.sinkJobEvent(rec, "job_started", j.id, map[string]any{
			"cells": len(j.cases), "replayed": replayedCells,
		})

		err := s.pool.ForEach(ctx, len(j.cases), func(ctx context.Context, i int) error {
			if i < len(j.have) && j.have[i] {
				return nil
			}
			uc := j.cases[i]
			j.mu.Lock()
			j.publishProgressLocked(j.cellEvent("cell_started", i))
			j.mu.Unlock()
			ctx, span := obs.Start(ctx, "sweep.cell")
			span.Attr("cell", i)
			span.Attr("program", uc.bench.Name)
			span.Attr("config", cache.ConfigID(uc.cfgIdx))
			span.Attr("tech", uc.tech.String())
			defer span.End()
			var (
				res    Result
				cached bool
			)
			start := time.Now()
			aerr := pool.Recover(func() error {
				var e error
				res, cached, e = s.analyze(ctx, uc)
				return e
			})
			dur := time.Since(start)
			if aerr != nil {
				if interrupt.Is(aerr) {
					s.metrics.cellsCanceled.Inc()
					return interrupt.Wrap(aerr)
				}
				msg := sanitizeCellError(aerr)
				span.Attr("error", msg)
				j.mu.Lock()
				j.failCellLocked(uc, aerr)
				ev := j.cellEvent("cell_failed", i)
				ev.DurMS, ev.Error = dur.Milliseconds(), msg
				j.publishProgressLocked(ev)
				j.mu.Unlock()
				s.journalCellFailed(ctx, j, i, aerr)
				return nil
			}
			span.Attr("cached", cached)
			j.mu.Lock()
			j.results[i] = res
			j.done++
			if cached {
				j.cacheHits++
			}
			j.durSumMS += dur.Milliseconds()
			j.durCount++
			ev := j.cellEvent("cell_finished", i)
			ev.Cached, ev.DurMS = cached, dur.Milliseconds()
			j.publishProgressLocked(ev)
			j.mu.Unlock()
			s.journalCell(ctx, j, i, cached, dur, res)
			return nil
		})
		err = interrupt.Wrap(err)

		// The recorder closes before the terminal state is published so a
		// client that sees state=done also sees the finished trace.
		var tree *obs.SpanTree
		if rec != nil {
			rec.Release()
			tree = rec.Tree()
		}

		state := jobDone
		if err != nil {
			state = jobFailed
		}
		j.mu.Lock()
		j.finished = time.Now().UTC()
		j.trace = tree
		j.state = state
		fin := jobEvent{Event: "job_finished", State: string(state)}
		if err != nil {
			j.errMsg = err.Error()
			fin.Error = j.errMsg
		}
		j.publishProgressLocked(fin)
		done, failed, jw := j.done, j.failed, j.jw
		j.mu.Unlock()
		s.persistTrace(j.id, tree, true)
		if err != nil {
			s.sinkJobEvent(rec, "job_finished", j.id, map[string]any{"state": string(state), "error": err.Error()})
			// An interrupted job (drain, shutdown, job timeout) closes its
			// journal WITHOUT a terminal record: the unfinished journal is
			// exactly the signal the next process resumes from.
			if jw != nil {
				jw.Close()
			}
			return
		}
		s.sinkJobEvent(rec, "job_finished", j.id, map[string]any{
			"state": string(state), "done": done, "failed": failed,
		})
		if jw != nil {
			// The terminal record makes the completion durable; from here a
			// restart replays the job as finished, results intact.
			if ferr := jw.Finish(context.Background(), string(jobDone), ""); ferr != nil {
				s.log.Warn("journal finish failed", "job", j.id, "err", ferr)
			}
		}
	}()
}

// sinkJobEvent appends one job lifecycle event to the trace sink (no-op
// without one). rec, when non-nil, supplies the trace ID linking the event
// to the job's trace.
func (s *Server) sinkJobEvent(rec *obs.Recorder, event, jobID string, attrs map[string]any) {
	sink := s.cfg.TraceSink
	if sink == nil {
		return
	}
	traceID := ""
	if rec != nil {
		traceID = rec.TraceID()
	}
	if err := sink.WriteEvent(context.Background(), event, jobID, traceID, attrs); err != nil {
		s.log.Warn("trace sink event write failed", "job", jobID, "event", event, "err", err)
	}
}

// journalCell durably records one completed cell. Journal failures are a
// durability downgrade (the cell would re-execute after a crash), never a
// reason to fail the cell — mirroring the result store's put policy.
func (s *Server) journalCell(ctx context.Context, j *job, i int, cached bool, dur time.Duration, res Result) {
	j.mu.Lock()
	jw := j.jw
	j.mu.Unlock()
	if jw == nil {
		return
	}
	payload, err := json.Marshal(res)
	if err == nil {
		err = jw.Cell(ctx, i, cached, dur, payload)
	}
	if err != nil && !interrupt.Is(err) {
		s.log.Warn("journal cell append failed", "job", j.id, "cell", i, "err", err)
	}
}

// journalCellFailed records one failed cell (informational: resume retries
// failed cells).
func (s *Server) journalCellFailed(ctx context.Context, j *job, i int, cellErr error) {
	j.mu.Lock()
	jw := j.jw
	j.mu.Unlock()
	if jw == nil {
		return
	}
	if err := jw.CellFailed(ctx, i, sanitizeCellError(cellErr)); err != nil && !interrupt.Is(err) {
		s.log.Warn("journal cellfail append failed", "job", j.id, "cell", i, "err", err)
	}
}

// resolveSweep expands a SweepRequest into the deterministic use-case
// list: programs × configs × techs in request (or canonical) order.
func (s *Server) resolveSweep(req SweepRequest) ([]useCase, error) {
	programs := req.Programs
	if len(programs) == 0 {
		programs = s.benchNames
	}
	configs := req.Configs
	if len(configs) == 0 {
		configs = s.configLabels
	}
	techs := req.Techs
	if len(techs) == 0 {
		techs = []string{"45nm", "32nm"}
	}
	policies := req.Policies
	if len(policies) == 0 {
		policies = []string{"lru"}
	}
	total := len(programs) * len(configs) * len(techs) * len(policies)
	if total > maxSweepCells {
		return nil, errorf(400, "sweep matrix has %d cells, limit %d", total, maxSweepCells)
	}
	cases := make([]useCase, 0, total)
	for _, p := range programs {
		for _, c := range configs {
			for _, t := range techs {
				for _, pol := range policies {
					uc, err := s.resolve(AnalyzeRequest{
						Program:          p,
						Config:           c,
						Tech:             t,
						Policy:           pol,
						Runs:             req.Runs,
						ValidationBudget: req.ValidationBudget,
						L2:               req.L2,
					})
					if err != nil {
						return nil, err
					}
					cases = append(cases, uc)
				}
			}
		}
	}
	return cases, nil
}

// maxSweepCells caps one job at the full evaluation matrix (37 × 36 × 2 =
// 2664) with headroom; larger requests should be split into several jobs.
const maxSweepCells = 4096

package service

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"ucp/internal/journal"
)

// journalSubmit opens a fresh journal for a newly admitted job. Journal
// failures degrade durability (the job would not survive a crash) but
// never block admission; the job runs memory-only like before.
func (s *Server) journalSubmit(j *job) {
	jnl := s.cfg.Journal
	if jnl == nil {
		return
	}
	raw, err := json.Marshal(j.req)
	if err == nil {
		var w *journal.Writer
		w, err = jnl.Begin(s.baseCtx, j.id, j.created, len(j.cases), raw)
		if err == nil {
			j.mu.Lock()
			j.jw = w
			j.mu.Unlock()
			return
		}
	}
	s.log.Warn("job journal begin failed; job runs memory-only", "job", j.id, "err", err)
}

// removeJournals unlinks the journal files of pruned jobs.
func (s *Server) removeJournals(ids []string) {
	jnl := s.cfg.Journal
	if jnl == nil {
		return
	}
	for _, id := range ids {
		if err := jnl.Remove(id); err != nil {
			s.log.Warn("journal remove failed", "job", id, "err", err)
		}
	}
}

// recoverJobs replays the journal directory at startup. Terminal jobs are
// re-adopted as finished (their results answer /v1/jobs/{id} with zero
// pipeline runs); unfinished jobs — the crash survivors — are resumed
// under their original IDs: journal-replayed cells are injected as
// already-done and only the incomplete remainder re-executes.
func (s *Server) recoverJobs() {
	jnl := s.cfg.Journal
	if jnl == nil {
		return
	}
	replayed, err := jnl.Replay()
	if err != nil {
		s.log.Warn("journal replay failed; jobs start empty", "err", err)
		return
	}
	for _, rj := range replayed {
		var req SweepRequest
		var cases []useCase
		uerr := json.Unmarshal(rj.Sweep, &req)
		if uerr == nil {
			cases, uerr = s.resolveSweep(req)
		}
		if uerr == nil && len(cases) != rj.Total {
			uerr = fmt.Errorf("journal total %d != resolved %d cells", rj.Total, len(cases))
		}
		if uerr != nil {
			// The sweep no longer resolves (corrupt submit record, a
			// benchmark or config that stopped existing). The job becomes a
			// terminal failure rather than vanishing — the client polling
			// its ID learns why.
			s.adoptUnresolvable(rj, uerr)
			continue
		}
		j := &job{
			id:      rj.ID,
			req:     req,
			cases:   cases,
			created: rj.Created,
			resumed: rj.Resumed,
		}
		switch rj.State {
		case string(jobDone):
			s.adoptDone(j, rj)
		case string(jobFailed):
			j.state = jobFailed
			j.errMsg = rj.Error
			j.finished = rj.Finished
			j.publishLocked(jobEvent{
				Event: "job_finished", State: string(jobFailed), Error: j.errMsg,
			})
		default:
			s.prepareResume(j, rj)
		}
		s.removeJournals(s.jobs.adopt(j))
		if j.currentState() == jobQueued {
			s.startSweep(j)
		}
	}
}

// adoptDone reconstructs a finished job from its journal: every cell
// record becomes a result, failure records become the bounded error log.
func (s *Server) adoptDone(j *job, rj journal.Job) {
	j.state = jobDone
	j.finished = rj.Finished
	j.results = make([]Result, rj.Total)
	for i := 0; i < rj.Total; i++ {
		c, ok := rj.Cells[i]
		if !ok {
			continue
		}
		var res Result
		if err := json.Unmarshal(c.Result, &res); err != nil {
			s.log.Warn("journal cell payload unreadable", "job", j.id, "cell", i, "err", err)
			continue
		}
		j.results[i] = res
		j.done++
		if c.Cached {
			j.cacheHits++
		}
		s.metrics.replayCells.Inc()
	}
	for i := 0; i < rj.Total; i++ {
		msg, ok := rj.Failures[i]
		if !ok {
			continue
		}
		j.failed++
		if len(j.cellErrors) < maxCellErrors {
			j.cellErrors = append(j.cellErrors, msg)
		}
	}
	// A replayed-finished job still answers its event stream coherently:
	// the history is gone with the old process, but the terminal line is
	// reconstructible. No lock needed — the job is not yet published.
	j.publishLocked(jobEvent{
		Event: "job_finished", State: string(jobDone),
		Done: j.done, Failed: j.failed,
	})
	s.log.Info("journal replayed finished job", "job", j.id, "cells", j.done)
}

// prepareResume stages an unfinished job for startSweep: completed cells
// ride in via have/pre, failed cells are forgotten (they retry), and the
// journal reopens in append mode with a resume marker.
func (s *Server) prepareResume(j *job, rj journal.Job) {
	j.state = jobQueued
	j.resumed = true
	j.have = make([]bool, rj.Total)
	j.pre = make([]Result, rj.Total)
	for i, c := range rj.Cells {
		var res Result
		if err := json.Unmarshal(c.Result, &res); err != nil {
			s.log.Warn("journal cell payload unreadable; cell re-executes",
				"job", j.id, "cell", i, "err", err)
			continue
		}
		j.have[i] = true
		j.pre[i] = res
		j.done++
		if c.Cached {
			j.cacheHits++
		}
		// Journaled durations seed the ETA estimator, so the resumed job's
		// first progress events forecast from real history instead of
		// starting blind.
		if c.DurMS > 0 {
			j.durSumMS += c.DurMS
			j.durCount++
		}
		s.metrics.replayCells.Inc()
	}
	w, err := s.cfg.Journal.Resume(s.baseCtx, j.id)
	if err != nil {
		s.log.Warn("journal resume open failed; job continues memory-only", "job", j.id, "err", err)
	} else {
		j.jw = w
	}
	s.metrics.jobsResumed.Inc()
	s.log.Info("resuming journaled job", "job", j.id,
		"done", j.done, "total", rj.Total, "skipped_lines", rj.Skipped)
}

// adoptUnresolvable parks a replayed-but-unresolvable job as a terminal
// failure, writing the terminal record so the next restart does not try
// again.
func (s *Server) adoptUnresolvable(rj journal.Job, cause error) {
	j := &job{
		id:       rj.ID,
		cases:    nil,
		created:  rj.Created,
		resumed:  rj.Resumed,
		state:    jobFailed,
		errMsg:   fmt.Sprintf("journal replay: %v", cause),
		finished: time.Now().UTC(),
	}
	j.publishLocked(jobEvent{
		Event: "job_finished", State: string(jobFailed), Error: j.errMsg,
	})
	s.log.Warn("journaled job no longer resolvable", "job", rj.ID, "err", cause)
	if rj.State == "" {
		if w, err := s.cfg.Journal.Resume(context.Background(), rj.ID); err == nil {
			if ferr := w.Finish(context.Background(), string(jobFailed), j.errMsg); ferr != nil {
				s.log.Warn("journal finish failed", "job", rj.ID, "err", ferr)
			}
		}
	}
	s.removeJournals(s.jobs.adopt(j))
}

package service

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"ucp/internal/pool"
)

// BatchRequest submits many use cases in one request. Cells may be listed
// explicitly, or expanded from a matrix exactly like /v1/sweep (explicit
// cells win when both are present). Unlike /v1/sweep — which returns a job
// ID to poll — the batch response is a stream: one NDJSON line per cell,
// written in completion order as analyses finish, closed by a summary
// line. Runs and ValidationBudget are defaults for cells that leave their
// own zero.
type BatchRequest struct {
	Cells []AnalyzeRequest `json:"cells,omitempty"`
	// SweepRequest is the matrix form. Its L2 is also the default second
	// cache level for cells that carry none of their own.
	SweepRequest
}

// batchCellLine is one NDJSON cell outcome (Result or Error, never both).
// Index is the cell's position in the resolved request order, so clients
// can reassemble deterministic order from the completion-ordered stream.
type batchCellLine struct {
	Index   int     `json:"index"`
	Program string  `json:"program"`
	Config  string  `json:"config"`
	Tech    string  `json:"tech"`
	Policy  string  `json:"policy"`
	Cached  bool    `json:"cached,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// batchSummaryLine closes the stream; Done is always true, so clients can
// key on it to tell the summary from a cell.
type batchSummaryLine struct {
	Done      bool   `json:"done"`
	Total     int    `json:"total"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
	CacheHits int    `json:"cache_hits"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Error     string `json:"error,omitempty"`
}

// resolveBatch expands a BatchRequest into resolved use cases.
func (s *Server) resolveBatch(req BatchRequest) ([]useCase, error) {
	if len(req.Cells) == 0 {
		return s.resolveSweep(req.SweepRequest)
	}
	if len(req.Cells) > maxSweepCells {
		return nil, errorf(400, "batch has %d cells, limit %d", len(req.Cells), maxSweepCells)
	}
	cases := make([]useCase, 0, len(req.Cells))
	for i, c := range req.Cells {
		if c.Runs == 0 {
			c.Runs = req.Runs
		}
		if c.ValidationBudget == 0 {
			c.ValidationBudget = req.ValidationBudget
		}
		if c.L2 == nil {
			c.L2 = req.L2
		}
		uc, err := s.resolve(c)
		if err != nil {
			return nil, errorf(statusOf(err), "cell %d: %v", i, err)
		}
		cases = append(cases, uc)
	}
	return cases, nil
}

// statusOf extracts an httpError's status (500 otherwise).
func statusOf(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.status
	}
	return http.StatusInternalServerError
}

// handleBatch streams cell results back as NDJSON. A batch is an ordinary
// job run by startSweep: it takes one job slot (refused with the same 429
// + Retry-After as /v1/sweep when none is free) and inherits the sweep's
// per-cell failure isolation and its timeout and drain handling. It is not
// journaled — the stream is its only delivery and dies with the process —
// and it lives no longer than its request: a client that goes away
// cancels it, and the finished job leaves the store. The handler renders
// the job's event log in the batch wire format: one line per finished or
// failed cell, then a summary that reports an interruption.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.unavailable(w, "server is draining")
		return
	}
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	cases, err := s.resolveBatch(req)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	j, pruned, err := s.jobs.tryAdd(SweepRequest{}, cases, s.cfg.MaxQueuedJobs)
	if err != nil {
		s.metrics.batchRejected.Inc()
		s.tooMany(w, "server saturated (%d unfinished jobs); retry later", s.cfg.MaxQueuedJobs)
		return
	}
	s.removeJournals(pruned)
	start := time.Now()
	s.startSweep(j)
	// Once the stream ends the job has no reader left: stop it, and when
	// its in-flight cells have wound down drop it from the store, so
	// finished batches never count toward the bound that evicts finished
	// sweeps.
	defer func() {
		j.cancel()
		j.wait()
		s.jobs.remove(j.id)
	}()

	var ok, failed, cacheHits int
	streamJob(w, r, j, func(ev jobEvent) any {
		switch ev.Event {
		case "cell_finished", "cell_failed":
			i := *ev.Cell
			line := batchCellLine{
				Index:   i,
				Program: ev.Program,
				Config:  ev.Config,
				Tech:    ev.Tech,
				Policy:  j.cases[i].hier.L1.Policy.String(),
				Error:   ev.Error,
			}
			isFailed := ev.Event == "cell_failed"
			s.metrics.batchCells.Inc()
			if isFailed {
				s.metrics.batchFailures.Inc()
				failed++
				return line
			}
			ok++
			if ev.Cached {
				cacheHits++
			}
			line.Cached = ev.Cached
			// Stored before the event was published; never written again.
			line.Result = &j.results[i]
			return line
		case "job_finished":
			return batchSummaryLine{
				Done:      true,
				Total:     len(j.cases),
				OK:        ok,
				Failed:    failed,
				CacheHits: cacheHits,
				ElapsedMS: time.Since(start).Milliseconds(),
				Error:     ev.Error,
			}
		}
		return nil
	})
}

// sanitizeCellError renders a cell failure for the stream: panics keep
// their stack out of the response (it goes to the log via pool counters),
// matching the /v1/analyze 500 body policy.
func sanitizeCellError(err error) string {
	var pe *pool.PanicError
	if errors.As(err, &pe) {
		return fmt.Sprintf("internal panic during analysis: %v", pe.Value)
	}
	return err.Error()
}

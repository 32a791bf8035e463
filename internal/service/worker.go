package service

import (
	"context"
	"net/http"
	"time"

	"ucp/internal/cache"
	"ucp/internal/experiment"
	"ucp/internal/faults"
	"ucp/internal/obs"
)

// handleWorkerCell executes one experiment.CellRequest in this process and
// returns the full experiment.Cell in an experiment.CellResponse. It is the
// distributed execution primitive: no result caching (the coordinator owns
// the cache tiers), no singleflight (the coordinator dedups), just bounded,
// cancellable, fault-isolated pipeline execution. The endpoint exists only
// when Config.EnableWorker is set — it belongs on interior replicas behind
// a coordinator, not on public edges.
func (s *Server) handleWorkerCell(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.unavailable(w, "server is draining")
		return
	}
	var req experiment.CellRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	uc, err := s.resolveCell(req.CellSpec)
	if err != nil {
		s.resolveErr(w, err)
		return
	}
	reqID := obs.RequestIDFrom(r.Context())
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AnalyzeTimeout)
	defer cancel()

	// A dispatch carrying a traceparent header joins the coordinator's
	// trace: this process records its spans under the remote span ID and
	// ships the finished tree back in the response envelope. finish closes
	// the recorder exactly once, persists the worker-side tree to the local
	// sink (always — the coordinator decided this request is traced), and
	// returns the tree for the envelope.
	var rec *obs.Recorder
	if tp := r.Header.Get("traceparent"); tp != "" {
		rec = obs.NewChildRecorder("worker", tp)
		rec.Root().Attr("request_id", reqID)
		ctx = rec.Install(ctx)
	}
	finish := func() *obs.SpanTree {
		if rec == nil {
			return nil
		}
		rec.Release()
		tree := rec.Tree()
		rec = nil
		s.persistTrace(reqID, tree, true)
		return tree
	}
	defer finish()

	ctx, span := obs.Start(ctx, "worker.cell")
	span.Attr("program", uc.bench.Name)
	span.Attr("config", cache.ConfigID(uc.cfgIdx))

	// The fault site for distributed acceptance tests: UCP_FAULTS rules at
	// worker.cell can delay, fail, or kill this replica mid-sweep so the
	// coordinator's retry and failover paths get exercised for real.
	if err := faults.Fire(ctx, "worker.cell", uc.String()); err != nil {
		span.Attr("error", err.Error())
		span.End()
		s.analyzeErr(w, err)
		return
	}

	var cell experiment.Cell
	start := time.Now()
	perr := s.pool.ForEach(ctx, 1, func(ctx context.Context, _ int) error {
		var aerr error
		cell, aerr = experiment.RunCell(ctx, uc.bench, uc.cfgIdx, uc.tech, uc.options(req.SkipReduced, req.Explain))
		return aerr
	})
	elapsed := time.Since(start)
	s.metrics.observeAnalysis(uc.hier.L1.Policy, elapsed, perr == nil)
	s.log.Info("worker cell",
		"request_id", reqID,
		"program", uc.bench.Name,
		"config", cache.ConfigID(uc.cfgIdx),
		"tech", uc.tech.String(),
		"duration_ms", elapsed.Milliseconds(),
		"ok", perr == nil,
	)
	if perr != nil {
		span.Attr("error", perr.Error())
		span.End()
		s.analyzeErr(w, perr)
		return
	}
	span.Attr("inserted", cell.Inserted)
	span.End()
	s.writeJSON(w, http.StatusOK, experiment.CellResponse{Cell: cell, Trace: finish()})
}

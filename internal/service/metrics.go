package service

import (
	"io"
	"time"

	"ucp/internal/cache"
	"ucp/internal/obs"
)

// metrics holds the server's operational instruments, all registered in the
// server's private obs registry so several Servers can coexist in one
// process (tests do) without sharing counters. Process-wide series — the
// wcet analysis-mode counters and the pool panic counter — live in
// obs.Global and are rendered alongside by renderMetrics.
type metrics struct {
	requests      *obs.CounterVec // ucp_requests_total{route}
	policy        *obs.CounterVec // ucp_analysis_policy_total{policy}
	analyses      *obs.Counter
	failures      *obs.Counter
	jobsRejected  *obs.Counter
	cellsCanceled *obs.Counter
	flightMerged  *obs.Counter
	batchCells    *obs.Counter
	batchFailures *obs.Counter
	batchRejected *obs.Counter
	jobsResumed   *obs.Counter
	replayCells   *obs.Counter
	latency       *obs.Histogram // rendered as a summary; see obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests: reg.CounterVec("ucp_requests_total",
			"HTTP requests served, by route.", "route"),
		policy: reg.CounterVec("ucp_analysis_policy_total",
			"Executed analyses by cache replacement policy.", "policy"),
		analyses: reg.Counter("ucp_analyses_total",
			"Analyses executed (cache misses that ran the optimizer)."),
		failures: reg.Counter("ucp_analysis_failures_total",
			"Executed analyses that returned an error."),
		jobsRejected: reg.Counter("ucp_jobs_rejected_total",
			"Sweep submissions refused by admission control (429)."),
		cellsCanceled: reg.Counter("ucp_cells_canceled_total",
			"Sweep cells stopped by cancellation or deadline."),
		flightMerged: reg.Counter("ucp_flight_merged_total",
			"Analyze requests coalesced onto an identical in-flight execution."),
		batchCells: reg.Counter("ucp_batch_cells_total",
			"Batch cells processed (served, executed, or failed)."),
		batchFailures: reg.Counter("ucp_batch_cell_failures_total",
			"Batch cells that failed (error or panic, isolated per cell)."),
		batchRejected: reg.Counter("ucp_batch_rejected_total",
			"Batch submissions refused by admission control (429)."),
		jobsResumed: reg.Counter("ucp_jobs_resumed_total",
			"Journaled sweep jobs resumed after a restart."),
		replayCells: reg.Counter("ucp_journal_replay_cells_total",
			"Cells answered from the job journal during replay (zero pipeline runs)."),
		latency: reg.Histogram("ucp_analysis_latency_seconds",
			"Latency of executed analyses (recent window)."),
	}
}

// registerPulls wires the families whose values live with other components
// — the result cache and the job store — as render-time callbacks. Called
// once from New after those components exist.
func (s *Server) registerPulls() {
	s.reg.CounterFunc("ucp_cache_hits_total", "Result-cache hits.", func() int64 {
		hits, _, _ := s.cache.stats()
		return hits
	})
	s.reg.CounterFunc("ucp_cache_misses_total", "Result-cache misses.", func() int64 {
		_, misses, _ := s.cache.stats()
		return misses
	})
	s.reg.GaugeFunc("ucp_cache_entries", "Resident result-cache entries.", func() float64 {
		_, _, entries := s.cache.stats()
		return float64(entries)
	})
	s.reg.GaugeVecFunc("ucp_jobs", "Sweep jobs by state.", "state", func() []obs.Sample {
		counts := s.jobs.counts()
		out := make([]obs.Sample, 0, 4)
		for _, st := range []jobState{jobQueued, jobRunning, jobDone, jobFailed} {
			out = append(out, obs.Sample{Label: string(st), Value: float64(counts[st])})
		}
		return out
	})
	// The persistent tier's families exist only when a store is configured,
	// so a store-less exposition is byte-identical to the pre-store one.
	if st := s.cfg.Store; st != nil {
		s.reg.CounterFunc("ucp_result_store_hits_total",
			"Persistent result-store entries served (verified).", func() int64 {
				return st.Stats().Hits
			})
		s.reg.CounterFunc("ucp_result_store_misses_total",
			"Persistent result-store lookups with no usable entry.", func() int64 {
				return st.Stats().Misses
			})
		s.reg.CounterFunc("ucp_result_store_evictions_total",
			"Persistent result-store entries removed (capacity or corruption).", func() int64 {
				return st.Stats().Evictions
			})
		s.reg.GaugeFunc("ucp_result_store_entries",
			"Resident persistent result-store entries.", func() float64 {
				return float64(st.Stats().Entries)
			})
		s.reg.GaugeFunc("ucp_result_store_bytes",
			"Resident persistent result-store bytes.", func() float64 {
				return float64(st.Stats().Bytes)
			})
	}
}

// observeAnalysis records one executed (non-cached) analysis under the
// L1 replacement policy it ran with.
func (m *metrics) observeAnalysis(policy cache.Policy, d time.Duration, ok bool) {
	m.analyses.Inc()
	m.policy.With(policy.String()).Inc()
	if !ok {
		m.failures.Inc()
	}
	m.latency.Observe(d.Seconds())
}

// renderMetrics writes the Prometheus text exposition: the server's own
// families plus the process-wide ones (wcet analysis modes, recovered
// panics) from the Global registry.
func (s *Server) renderMetrics(w io.Writer) error {
	return obs.WritePrometheus(w, s.reg, obs.Global())
}

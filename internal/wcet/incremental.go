package wcet

import "ucp/internal/obs"

// Counters for observability: how many analyses ran the full from-scratch
// pipeline versus the incremental warm path. They live in the process-wide
// obs registry, so the service /metrics endpoint (and anything else that
// renders obs.Global) picks them up without wiring.
var (
	statFull = obs.NewCounter("ucp_analysis_full_reanalyses_total",
		"WCET analyses computed from scratch.")
	statIncremental = obs.NewCounter("ucp_analysis_incremental_hits_total",
		"WCET re-analyses seeded incrementally from a previous result.")
)

// AnalysisStats is a snapshot of the process-wide analysis counters.
type AnalysisStats struct {
	// Full counts analyses that ran the from-scratch fixpoint.
	Full int64
	// Incremental counts re-analyses served by AnalyzeXHierFrom's warm path.
	Incremental int64
}

// Stats returns the current analysis counters.
func Stats() AnalysisStats {
	return AnalysisStats{Full: statFull.Value(), Incremental: statIncremental.Value()}
}

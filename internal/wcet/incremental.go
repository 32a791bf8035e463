package wcet

import (
	"context"

	"ucp/internal/cache"
	"ucp/internal/obs"
	"ucp/internal/vivu"
)

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
	// Incremental counts re-analyses served by AnalyzeXFrom's warm path.
	Incremental int64
}

// Stats returns the current analysis counters.
func Stats() AnalysisStats {
	return AnalysisStats{Full: statFull.Value(), Incremental: statIncremental.Value()}
}

// AnalyzeXFrom re-analyzes a mutated program incrementally, seeded from a
// previous Result for the same expansion and parameters: the single-level
// case of AnalyzeXHierFrom. The abstract interpretation restarts only the
// region affected by the mutation (see absint.AnalyzeFrom), per-block cost
// rows are recomputed only for blocks the fixpoint actually revisited, and
// the structural WCET solve is skipped entirely when the cost and extra
// vectors came out unchanged — in that case the previous counts are
// provably identical. The returned Result is bit-identical
// (classifications, Tw, Nw, τ_w, miss and fetch counts) to what AnalyzeX
// would compute from scratch; the differential tests pin this down. When
// prev is nil or was produced under different parameters the call degrades
// to a full AnalyzeX.
func AnalyzeXFrom(ctx context.Context, x *vivu.Prog, cfg cache.Config, par Params, prev *Result) (*Result, error) {
	return AnalyzeXHierFrom(ctx, x, cache.Hier1(cfg), par, prev)
}

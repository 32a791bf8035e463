// Package wcet orchestrates the classical cache-aware WCET analysis the
// paper builds on: VIVU expansion, must/may abstract interpretation, and the
// determination of the WCET scenario (Section 3.3). Besides the IPET/ILP
// reference path (internal/ipet), it implements a fast structural solver
// for the reducible graphs our builder produces; the two are cross-checked
// in tests.
package wcet

import (
	"context"
	"fmt"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// Params are the timing parameters of the memory system, in cycles.
type Params struct {
	// HitCycles is the time of an instruction fetch that hits in cache.
	HitCycles int64
	// MissPenalty is the additional time of a fetch that misses (the
	// level-two access).
	MissPenalty int64
	// Lambda is the prefetch latency Λ (Definition 4): the time between a
	// prefetch issuing and the block being resident.
	Lambda int64
	// L2HitCycles is the additional time of a fetch that misses the L1 but
	// hits the L2, beyond HitCycles. Zero means no L2 is modeled: a fetch
	// either hits (HitCycles) or goes to memory (HitCycles+MissPenalty),
	// exactly the pre-hierarchy timing. Hierarchy analyses require it ≥ 1
	// and < MissPenalty (an L2 hit must beat a memory access).
	L2HitCycles int64
}

// Valid reports whether the parameters are usable.
func (p Params) Valid() error {
	if p.HitCycles < 1 || p.MissPenalty < 1 || p.Lambda < 1 {
		return fmt.Errorf("wcet: non-positive timing parameters %+v", p)
	}
	if p.L2HitCycles < 0 || p.L2HitCycles >= p.MissPenalty {
		return fmt.Errorf("wcet: L2 hit cycles %d outside [0, miss penalty %d)", p.L2HitCycles, p.MissPenalty)
	}
	return nil
}

// MissCycles is the total fetch time on a miss.
func (p Params) MissCycles() int64 { return p.HitCycles + p.MissPenalty }

// Result is the outcome of a full WCET analysis of one program on one cache
// configuration.
type Result struct {
	Prog *isa.Program
	X    *vivu.Prog
	Lay  *isa.Layout
	AI   *absint.Result
	Cfg  cache.Config
	Par  Params

	// Hier is the cache hierarchy the result was computed against; for a
	// single-level analysis it is Hier1(Cfg). AI2 is the L2 abstract
	// interpretation, nil when no L2 is configured.
	Hier cache.Hierarchy
	AI2  *absint.Result

	// Tw[xb][i] is t_w of the i-th reference of expanded block xb: its
	// fetch time in the WCET scenario (Section 3.3).
	Tw [][]int64
	// Cost[xb] = Σ_i Tw[xb][i], the per-block memory time t_w(bb).
	Cost []int64
	// Extra[xb] is the one-time cost charged once per entry of the
	// residual loop region containing xb (the first-miss charges of
	// persistence-classified references).
	Extra []int64
	// Nw[xb] is the execution count of expanded block xb in the WCET
	// scenario (n^w_bb); zero off the WCET path.
	Nw []int64
	// TauW is the memory contribution to the WCET, Σ Cost·Nw (Equation 3).
	TauW int64
	// Misses is the number of L1 cache misses in the WCET scenario
	// (references not classified always-hit, weighted by Nw).
	Misses int64
	// L2Misses is the number of fetches that also miss the L2 in the WCET
	// scenario (pay the full MissPenalty). Zero for single-level analyses,
	// where every L1 miss goes straight to memory.
	L2Misses int64
	// Fetches is the number of instruction fetches in the WCET scenario.
	Fetches int64
}

// Analyze expands p and analyzes it on cfg with parameters par. The analysis
// is cooperatively cancellable: when ctx is canceled or its deadline passes,
// the fixpoint unwinds and the call returns a typed interrupt error
// (interrupt.ErrCanceled / interrupt.ErrDeadline).
func Analyze(ctx context.Context, p *isa.Program, cfg cache.Config, par Params) (*Result, error) {
	x, err := vivu.ExpandCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	return AnalyzeX(ctx, x, cfg, par)
}

// AnalyzeX analyzes a pre-expanded program. The expansion depends only on
// the control-flow structure, not on the instruction sequences, so the
// optimizer reuses one expansion across its insertion iterations. It is the
// single-level case of AnalyzeXHier.
func AnalyzeX(ctx context.Context, x *vivu.Prog, cfg cache.Config, par Params) (*Result, error) {
	return AnalyzeXHier(ctx, x, cache.Hier1(cfg), par)
}

// SolveCounts runs the structural WCET-scenario solver for externally
// supplied per-block costs, returning the counts n_w and the optimum τ_w.
// The locking baseline uses it with its own fixed hit/miss cost vector.
func SolveCounts(x *vivu.Prog, cost []int64) (nw []int64, tau int64, err error) {
	return solveStructural(x, cost)
}

// OnWCETPath reports whether expanded block xb executes in the WCET
// scenario.
func (r *Result) OnWCETPath(xb int) bool { return r.Nw[xb] > 0 }

// RefTime returns t_w of a reference (the fetch time of one access in the
// WCET scenario).
func (r *Result) RefTime(ref vivu.Ref) int64 { return r.Tw[ref.XB][ref.Index] }

// RefCount returns n_w of the expanded block containing the reference.
func (r *Result) RefCount(ref vivu.Ref) int64 { return r.Nw[ref.XB] }

// Contribution returns τ_w(r) = t_w(r)·n_w(B(r)) (Equation 2).
func (r *Result) Contribution(ref vivu.Ref) int64 {
	return r.RefTime(ref) * r.RefCount(ref)
}

package absint

import (
	"context"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// This file holds the per-level entry points of the multi-level analysis
// after Hardy & Puaut ("WCET analysis of multi-level set-associative
// instruction caches"). Every level runs the same must/may/persistence
// fixpoint (analyze in incremental.go) over the same VIVU-expanded graph;
// level n's transfer rows are filtered by the cache access classification
// (CAC) of level n−1's result. A reference that always hits the L1 never
// reaches the L2 (Never: the L2 state is untouched); one that always misses
// the L1 always accesses the L2 (Always: the plain update applies); anything
// in between is Uncertain, and the L2 state after it is the join of the
// access-applied and the access-skipped branches — sound whichever way the
// concrete execution goes. The L1 is the level where every access is
// Always, so the L1 analysis is the degenerate case of the same code.
//
// Prefetches fill the level they target: a Level-2 prefetch fills the L2
// only and leaves the L1 untouched, any other prefetch fills the L1. The
// fill of an L1 prefetch passes through the L2 on its way at an unknown
// time, so at the L2 it is applied as a non-effective (age-only) fill; only
// Level-2 prefetches may be effective there. Since both levels share the
// fixpoint, the L2 also shares its incremental re-analysis: AnalyzeL2From
// diffs the CAC-gated rows against the previous L2 result and re-solves only
// what a mutation (or a shifted L1 classification) actually changed.

// cacClass is Hardy & Puaut's cache access classification: whether a
// reference reaches the analyzed cache level.
type cacClass uint8

const (
	// cacAlways: the reference always reaches this level — every L1
	// access, and an L2 access whose L1 verdict is a guaranteed miss.
	cacAlways cacClass = iota
	// cacNever: the reference is guaranteed to hit the L1, the L2 never
	// sees it.
	cacNever
	// cacUncertain: the reference may or may not reach the L2; both
	// branches must be joined.
	cacUncertain
)

// cacOf derives the CAC from an L1 classification. FirstMiss accesses the
// L2 at most once per region entry, which Uncertain covers soundly.
func cacOf(c Classification) cacClass {
	switch c {
	case AlwaysHit:
		return cacNever
	case AlwaysMiss:
		return cacAlways
	default:
		return cacUncertain
	}
}

// AnalyzeL2 runs the CAC-gated L2 fixpoint for hierarchy h over the expanded
// program x, consuming the classifications of the completed L1 analysis l1.
// lambda is the prefetch fill latency in cycles (the same Λ as at L1: both
// fills come from memory). The returned Result classifies every reference
// against the L2 — meaningful only for references whose CAC is not Never;
// the WCET pricing consults the L1 class first, so the others never matter.
func AnalyzeL2(ctx context.Context, x *vivu.Prog, lay *isa.Layout, h cache.Hierarchy, lambda int, l1 *Result) (*Result, error) {
	return analyze(ctx, x, lay, h.L2, lambda, l1, nil)
}

// AnalyzeL2From is the incremental form of AnalyzeL2, seeded from the L2
// result prev of an earlier analysis of the same expanded program; l1 is the
// L1 result of the current program. It yields a Result bit-identical to
// AnalyzeL2 and degrades to it when prev is nil or incompatible.
func AnalyzeL2From(ctx context.Context, x *vivu.Prog, lay *isa.Layout, h cache.Hierarchy, lambda int, l1, prev *Result) (*Result, error) {
	if prev == nil || prev.X != x || prev.Cfg != h.L2 || prev.lambda != lambda || !prev.gated {
		prev = nil
	}
	return analyze(ctx, x, lay, h.L2, lambda, l1, prev)
}

// Package wcet orchestrates the classical cache-aware WCET analysis the
// paper builds on: VIVU expansion, must/may abstract interpretation, and the
// determination of the WCET scenario (Section 3.3). Besides the IPET
// reference path (internal/ipet), it implements a fast structural solver
// for the reducible graphs our builder produces; the two are cross-checked
// in tests.
package wcet

import (
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
	Par  Params

	// Hier is the cache hierarchy the result was computed against. AI2 is
	// the L2 abstract interpretation, nil when no L2 is configured.
	Hier cache.Hierarchy
	AI2  *absint.Result

	// Cost[xb] = Σ_i RefTime of the references of expanded block xb, the
	// per-block memory time t_w(bb) (Section 3.3).
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

	// tally[xb] counts the misses of expanded block xb's references;
	// Misses and L2Misses sum it over the blocks on the WCET path.
	tally []tally

	// plan is the structural solve's layout of X's regions; it depends only
	// on the expansion and is shared along the chain of re-analyses.
	plan *solvePlan
	// ownNw marks an Nw this result's own solve made; a result whose cost
	// vectors came out unchanged shares its parent's.
	ownNw bool
}

// SolveCounts runs the structural WCET-scenario solver for externally
// supplied per-block costs, returning the counts n_w and the optimum τ_w.
// The locking baseline uses it with its own fixed hit/miss cost vector.
func SolveCounts(x *vivu.Prog, cost []int64) (nw []int64, tau int64, err error) {
	plan, err := newSolvePlan(x)
	if err != nil {
		return nil, 0, err
	}
	nw, tau = plan.solve(cost, nil)
	return nw, tau, nil
}

// Sentinels a given-back vector is filled with under reuse.Poison.
const poisonCount = -0x5A5A5A5A5A5A5A5A

var poisonTally = tally{l1: missCount{-1, -1, -1}, mem: missCount{-1, -1, -1}}

// Release ends the life of a rolled-back re-analysis and gives everything
// it allocated back to the chain that made it, for the chain's next
// re-analysis to take before it allocates: each level's abstract states,
// rows and tables (see absint.Result.Release; the L2's first, since it was
// gated by and seeded after the L1), its Cost, Extra and tally vectors
// and, when its own solve made it, its Nw to the solve plan, and the rows
// its derived layout made to the program (see isa.Layout.Release). Its
// vectors are cleared, so a later use fails loudly. Only a result nothing
// was seeded from may be released. Its seed stays valid, including the Nw
// a result with unchanged costs shares with it. Release is nil-safe and
// idempotent, and a no-op on a retired result.
func (r *Result) Release() {
	if r == nil || r.Cost == nil {
		return
	}
	r.AI2.Release()
	r.AI.Release()
	r.Lay.Release()
	r.plan.cost.Put(r.Cost, poisonCount)
	r.plan.extra.Put(r.Extra, poisonCount)
	r.plan.tally.Put(r.tally, poisonTally)
	if r.ownNw {
		r.plan.nw.Put(r.Nw, poisonCount)
	}
	r.clear()
}

// Retire ends r's life after next, the re-analysis seeded from r that
// superseded it (an accepted edit): each level hands next the exit states
// next still shares and recycles the rest (see absint.Result.Retire).
// Nothing else is given back, because next and the results seeded from it
// may alias r's rows, vectors and layout rows. r must not be used or seeded
// from afterwards; next stays valid. A nil next releases r. Retire is
// nil-safe and idempotent.
func (r *Result) Retire(next *Result) {
	if next == nil {
		r.Release()
		return
	}
	if r == nil || r.Cost == nil {
		return
	}
	r.AI2.Retire(next.AI2)
	r.AI.Retire(next.AI)
	r.clear()
}

// clear drops r's vectors.
func (r *Result) clear() {
	r.Cost, r.Extra, r.tally, r.Nw, r.ownNw = nil, nil, nil, nil, false
}

// OnWCETPath reports whether expanded block xb executes in the WCET
// scenario.
func (r *Result) OnWCETPath(xb int) bool { return r.Nw[xb] > 0 }

// RefTime returns t_w of a reference (the fetch time of one access in the
// WCET scenario), priced from its per-level classifications.
func (r *Result) RefTime(ref vivu.Ref) int64 { return r.price(ref.XB, ref.Index).t }

// RefCount returns n_w of the expanded block containing the reference.
func (r *Result) RefCount(ref vivu.Ref) int64 { return r.Nw[ref.XB] }

// Contribution returns τ_w(r) = t_w(r)·n_w(B(r)) (Equation 2).
func (r *Result) Contribution(ref vivu.Ref) int64 {
	return r.RefTime(ref) * r.RefCount(ref)
}

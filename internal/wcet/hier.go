package wcet

import (
	"context"
	"fmt"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/obs"
	"ucp/internal/vivu"
)

// This file is the one analysis path of the package. Each configured cache
// level gets the same abstract interpretation — the L1 through
// absint.AnalyzeFrom, the L2 through absint.AnalyzeL2From, gated by the L1
// verdicts — and both are seeded incrementally from the previous result
// when one is given. The assembly then prices every reference with three
// outcomes:
//
//	L1 hit              HitCycles
//	L1 miss, L2 hit     HitCycles + L2HitCycles
//	L2 miss             HitCycles + L2HitCycles + MissPenalty
//
// First-miss classifications at either level move their charge into the
// once-per-region-entry extra vector. A single-level analysis is the
// degenerate hierarchy: there is no L2 result, every L1 miss counts as an
// L2 miss at zero L2 latency, and L2Misses stays zero — exactly the
// two-outcome pricing of the paper's model.

// AnalyzeHier expands p and analyzes it against the hierarchy h. With no L2
// configured it is exactly Analyze on h.L1.
func AnalyzeHier(ctx context.Context, p *isa.Program, h cache.Hierarchy, par Params) (*Result, error) {
	x, err := vivu.ExpandCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	return AnalyzeXHier(ctx, x, h, par)
}

// AnalyzeXHier analyzes a pre-expanded program against the hierarchy h.
func AnalyzeXHier(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params) (*Result, error) {
	return AnalyzeXHierFrom(ctx, x, h, par, nil)
}

// AnalyzeXHierFrom re-analyzes a mutated program against hierarchy h,
// seeding every level's abstract interpretation from prev when prev was
// computed for the same expansion, hierarchy and parameters; otherwise it
// analyzes from scratch. Either way the result is bit-identical to a
// from-scratch analysis.
func AnalyzeXHierFrom(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params, prev *Result) (*Result, error) {
	if err := par.Valid(); err != nil {
		return nil, err
	}
	if err := h.Valid(); err != nil {
		return nil, err
	}
	if h.HasL2() && par.L2HitCycles < 1 {
		return nil, fmt.Errorf("wcet: hierarchy analysis needs L2HitCycles >= 1, have %d", par.L2HitCycles)
	}
	mode := "full"
	if prev != nil && prev.X == x && prev.Hier == h && prev.Par == par {
		statIncremental.Inc()
		mode = "incremental"
	} else {
		statFull.Inc()
		prev = nil
	}
	if h.HasL2() {
		mode = "hier-" + mode
	}
	ctx, span := obs.Start(ctx, "wcet.analyze")
	if span != nil {
		span.Attr("mode", mode)
	}
	defer span.End()
	// A re-analysis derives the layout from prev's: only the rows of blocks
	// an edit moved or rewrote are recomputed, and the change record lets
	// each level rebuild only the transfer rows those blocks reach.
	var lay *isa.Layout
	var prevAI, prevAI2 *absint.Result
	if prev != nil {
		lay = prev.Lay.Derive()
		prevAI, prevAI2 = prev.AI, prev.AI2
	} else {
		lay = isa.NewLayout(x.Prog)
	}
	ai, err := absint.AnalyzeFrom(ctx, x, lay, h.L1, int(par.Lambda), prevAI)
	if err != nil {
		return nil, err
	}
	var ai2 *absint.Result
	if h.HasL2() {
		if ai2, err = absint.AnalyzeL2From(ctx, x, lay, h, int(par.Lambda), ai, prevAI2); err != nil {
			return nil, err
		}
	}
	return assemble(ctx, x, h, par, lay, ai, ai2, prev)
}

// unchanged reports whether the abstract interpretation ai provably left
// block id as it was in the result it was seeded from (a nil ai, the absent
// L2, never changes).
func unchanged(ai *absint.Result, id int) bool {
	return ai == nil || (ai.Changed != nil && !ai.Changed[id])
}

// assemble turns the per-level abstract interpretations into a WCET Result
// (ai2 is nil without an L2), reusing prev's per-block rows for blocks no
// level changed and prev's solve outputs when the cost vectors are
// unchanged.
func assemble(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params, lay *isa.Layout, ai, ai2 *absint.Result, prev *Result) (*Result, error) {
	n := len(x.Blocks)
	res := &Result{
		Prog: x.Prog, X: x, Lay: lay, AI: ai, AI2: ai2,
		Cfg: h.L1, Hier: h, Par: par,
		Tw:   make([][]int64, n),
		Cost: make([]int64, n),
	}
	if prev != nil {
		res.plan = prev.plan
	} else {
		var err error
		if res.plan, err = newSolvePlan(x); err != nil {
			return nil, err
		}
	}
	// Without an L2 every L1 miss goes to memory directly: the L2 verdict is
	// a miss and an L2 access costs nothing.
	l2Hit := par.L2HitCycles
	if ai2 == nil {
		l2Hit = 0
	}
	// extra[xb] carries the one-time first-miss charges of the block's
	// persistence-classified references: each pays its miss once per entry
	// of its loop region, not per execution.
	extra := make([]int64, n)
	costSame := prev != nil
	for _, xb := range x.Blocks {
		id := xb.ID
		if prev != nil && unchanged(ai, id) && unchanged(ai2, id) {
			res.Tw[id] = prev.Tw[id]
			res.Cost[id] = prev.Cost[id]
			extra[id] = prev.Extra[id]
			continue
		}
		instrs := x.Prog.Blocks[xb.Orig].Instrs
		row := make([]int64, len(instrs))
		total := int64(0)
		for i := range instrs {
			c2 := absint.NotClassified
			if ai2 != nil {
				c2 = ai2.Class[id][i]
			}
			t := par.HitCycles
			switch ai.Class[id][i] {
			case absint.AlwaysHit:
				// Served by the L1; the L2 never sees the fetch.
			case absint.FirstMiss:
				// Reaches the L2 once per region entry; the L2 verdict
				// decides whether that one access also goes to memory.
				extra[id] += l2Hit
				if c2 != absint.AlwaysHit {
					extra[id] += par.MissPenalty
				}
			default:
				// May reach the L2 on every execution.
				t += l2Hit
				switch c2 {
				case absint.AlwaysHit:
				case absint.FirstMiss:
					extra[id] += par.MissPenalty
				default:
					t += par.MissPenalty
				}
			}
			row[i] = t
			total += t
		}
		res.Tw[id] = row
		res.Cost[id] = total
		if costSame && (total != prev.Cost[id] || extra[id] != prev.Extra[id]) {
			costSame = false
		}
	}
	res.Extra = extra

	// Unchanged cost and extra vectors determine the solve completely, so
	// the counts and τ_w are prev's. At a single level they also force the
	// per-block class-category counts to be unchanged (every fetch costs
	// HitCycles or MissCycles, and each first miss one MissPenalty of
	// extra), so the miss and fetch totals are prev's as well. With an L2
	// the per-level split is not determined by the costs alone — a first
	// miss served by the L2 and an L2 first miss can both hide behind one
	// extra total — so the totals are recounted.
	if costSame {
		res.Nw, res.TauW = prev.Nw, prev.TauW
		if _, sp := obs.Start(ctx, "wcet.solve"); sp != nil {
			sp.Attr("skipped", true)
			sp.Attr("tau_w", res.TauW)
			sp.End()
		}
		if ai2 == nil {
			res.Misses, res.Fetches = prev.Misses, prev.Fetches
			return res, nil
		}
	} else {
		_, sp := obs.Start(ctx, "wcet.solve")
		nw, tau := res.plan.solve(res.Cost, extra)
		sp.Attr("tau_w", tau)
		sp.End()
		res.Nw, res.TauW = nw, tau
	}
	for _, xb := range x.Blocks {
		cnt := res.Nw[xb.ID]
		if cnt == 0 {
			continue
		}
		res.Fetches += cnt * int64(len(x.Prog.Blocks[xb.Orig].Instrs))
		for i := range x.Prog.Blocks[xb.Orig].Instrs {
			c1 := ai.Class[xb.ID][i]
			switch c1 {
			case absint.AlwaysHit:
				continue
			case absint.FirstMiss:
				res.Misses++ // at most one L1 miss regardless of n_w
			default:
				res.Misses += cnt
			}
			if ai2 == nil {
				continue // no L2: L2Misses stays zero
			}
			// The fetch reaches the L2 (always, or once per region for a
			// first miss); count how often it also goes to memory.
			switch c2 := ai2.Class[xb.ID][i]; {
			case c2 == absint.AlwaysHit:
			case c1 == absint.FirstMiss || c2 == absint.FirstMiss:
				res.L2Misses++
			default:
				res.L2Misses += cnt
			}
		}
	}
	return res, nil
}

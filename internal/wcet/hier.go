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
// level gets the same abstract interpretation, absint.AnalyzeChain — the L2
// gated by the L1 verdicts — seeded incrementally from the same level of
// the previous result when one is given. One function, price, turns a
// reference's verdicts into its cost with three outcomes:
//
//	L1 hit              HitCycles
//	L1 miss, L2 hit     HitCycles + L2HitCycles
//	L2 miss             HitCycles + L2HitCycles + MissPenalty
//
// First-miss classifications at either level move their charge into the
// once-per-region-entry extra vector. A single-level analysis is the
// degenerate hierarchy: there is no L2 result, every L1 miss counts as an
// L2 miss at zero L2 latency, and L2Misses stays zero — exactly the
// two-outcome pricing of the paper's model. RefTime and the assembly both
// price through it; the miss totals are sums of per-block tallies.

// AnalyzeHier expands p and analyzes it against the hierarchy h; a
// single-level cache is cache.Hier1(cfg). The analysis is cooperatively
// cancellable: when ctx is canceled or its deadline passes, the fixpoint
// unwinds and the call returns a typed interrupt error
// (interrupt.ErrCanceled / interrupt.ErrDeadline).
func AnalyzeHier(ctx context.Context, p *isa.Program, h cache.Hierarchy, par Params) (*Result, error) {
	x, err := vivu.ExpandCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	return AnalyzeXHier(ctx, x, h, par)
}

// AnalyzeXHier analyzes a pre-expanded program against the hierarchy h. The
// expansion depends only on the control-flow structure, not on the
// instruction sequences, so the optimizer reuses one expansion across its
// insertion iterations.
func AnalyzeXHier(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params) (*Result, error) {
	return AnalyzeXHierFrom(ctx, x, h, par, nil, true)
}

// AnalyzeXHierFrom is the chain entry of the package: it re-analyzes a
// mutated program against hierarchy h, seeding every level's abstract
// interpretation from prev when prev was computed for the same expansion,
// hierarchy and parameters, and otherwise analyzes from scratch. Either way
// the result is bit-identical to a from-scratch analysis.
//
// am says whether the caller reads AlwaysMiss verdicts. Pricing charges
// AlwaysMiss like NotClassified, so a level without that demand may answer
// NotClassified instead (see absint.AnalyzeChain). A full analysis derives
// each level's demand from am and h: the L2's access gate reads the L1's
// AlwaysMiss verdicts, so the L1 resolves them when am is set or h has an
// L2, the L2 when am is set. A seeded re-analysis keeps prev's demand at
// every level, whatever am says.
func AnalyzeXHierFrom(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params, prev *Result, am bool) (*Result, error) {
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
	// each level rebuild only the transfer rows those blocks reach. It
	// keeps prev's AlwaysMiss demand: AnalyzeChain does not seed from a
	// level computed under another.
	var lay *isa.Layout
	var prevAI, prevAI2 *absint.Result
	am1, am2 := am || h.HasL2(), am
	if prev != nil {
		lay = prev.Lay.Derive()
		prevAI, prevAI2 = prev.AI, prev.AI2
		am1, am2 = prevAI.HasAlwaysMiss(), prevAI2 != nil && prevAI2.HasAlwaysMiss()
	} else {
		lay = isa.NewLayout(x.Prog)
	}
	lambda := int(par.Lambda)
	ai, err := absint.AnalyzeChain(ctx, x, lay, h.L1, lambda, nil, prevAI, am1)
	if err != nil {
		return nil, err
	}
	var ai2 *absint.Result
	if h.HasL2() {
		if ai2, err = absint.AnalyzeChain(ctx, x, lay, h.L2, lambda, ai, prevAI2, am2); err != nil {
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

// missRate says how often a reference misses a cache level in the WCET
// scenario: never, on every execution of its block, or once per entry of
// its loop region (a first miss).
type missRate uint8

const (
	never missRate = iota
	perExec
	perEntry
)

// refPrice is the price of one reference in the WCET scenario: t, its t_w,
// is charged on every execution and once on each entry of its loop region;
// l1 says how often it misses the L1, mem how often it goes to memory.
type refPrice struct {
	t, once int64
	l1, mem missRate
}

// price is the three-outcome pricing of reference i of expanded block xb
// from its per-level verdicts. Without an L2 every L1 miss goes to memory
// directly: the L2 verdict is a miss and an L2 access costs nothing.
func (r *Result) price(xb, i int) refPrice {
	c1, c2, l2Hit := r.AI.Class[xb][i], absint.NotClassified, int64(0)
	if r.AI2 != nil {
		c2, l2Hit = r.AI2.Class[xb][i], r.Par.L2HitCycles
	}
	p := refPrice{t: r.Par.HitCycles}
	switch c1 {
	case absint.AlwaysHit:
		// Served by the L1; the L2 never sees the fetch.
		return p
	case absint.FirstMiss:
		// Reaches the L2 once per region entry; the L2 verdict decides
		// whether that one access also goes to memory.
		p.once, p.l1 = l2Hit, perEntry
	default:
		// May reach the L2 on every execution.
		p.t, p.l1 = p.t+l2Hit, perExec
	}
	switch {
	case c2 == absint.AlwaysHit:
	case c1 == absint.FirstMiss || c2 == absint.FirstMiss:
		p.once, p.mem = p.once+r.Par.MissPenalty, perEntry
	default:
		p.t, p.mem = p.t+r.Par.MissPenalty, perExec
	}
	return p
}

// missCount counts one block's references by missRate.
type missCount [3]int32

// in returns the misses the counted references take in a block executed
// nw > 0 times: a first miss is taken once however often the block runs.
func (c missCount) in(nw int64) int64 {
	return nw*int64(c[perExec]) + int64(c[perEntry])
}

// tally is one expanded block's miss counts at the L1 and to memory.
type tally struct{ l1, mem missCount }

// assemble turns the per-level abstract interpretations into a WCET Result
// (ai2 is nil without an L2), reusing prev's per-block cost, extra and
// tally for blocks no level changed and prev's solve outputs when the cost
// vectors are unchanged.
func assemble(ctx context.Context, x *vivu.Prog, h cache.Hierarchy, par Params, lay *isa.Layout, ai, ai2 *absint.Result, prev *Result) (*Result, error) {
	n := len(x.Blocks)
	res := &Result{Prog: x.Prog, X: x, Lay: lay, AI: ai, AI2: ai2, Hier: h, Par: par}
	if prev != nil {
		res.plan = prev.plan
	} else {
		var err error
		if res.plan, err = newSolvePlan(x); err != nil {
			return nil, err
		}
	}
	// The vectors come from the ones the chain's last released result gave
	// back to the plan (see Result.Release), when there are any.
	res.Cost, res.Extra, res.tally = res.plan.cost.Take(n), res.plan.extra.Take(n), res.plan.tally.Take(n)
	costSame := prev != nil
	for _, xb := range x.Blocks {
		id := xb.ID
		if prev != nil && unchanged(ai, id) && unchanged(ai2, id) {
			res.Cost[id], res.Extra[id], res.tally[id] = prev.Cost[id], prev.Extra[id], prev.tally[id]
			continue
		}
		tl := &res.tally[id]
		for i := range x.Prog.Blocks[xb.Orig].Instrs {
			p := res.price(id, i)
			res.Cost[id] += p.t
			res.Extra[id] += p.once
			tl.l1[p.l1]++
			tl.mem[p.mem]++
		}
		if costSame && (res.Cost[id] != prev.Cost[id] || res.Extra[id] != prev.Extra[id]) {
			costSame = false
		}
	}

	// Unchanged cost and extra vectors determine the solve completely, so
	// the counts and τ_w are prev's.
	if costSame {
		res.Nw, res.TauW = prev.Nw, prev.TauW
		if _, sp := obs.Start(ctx, "wcet.solve"); sp != nil {
			sp.Attr("skipped", true)
			sp.Attr("tau_w", res.TauW)
			sp.End()
		}
	} else {
		_, sp := obs.Start(ctx, "wcet.solve")
		nw, tau := res.plan.solve(res.Cost, res.Extra)
		sp.Attr("tau_w", tau)
		sp.End()
		res.Nw, res.TauW, res.ownNw = nw, tau, true
	}
	for _, xb := range x.Blocks {
		nw := res.Nw[xb.ID]
		if nw == 0 {
			continue
		}
		res.Fetches += nw * int64(len(x.Prog.Blocks[xb.Orig].Instrs))
		res.Misses += res.tally[xb.ID].l1.in(nw)
		if ai2 != nil { // without an L2, L2Misses stays zero
			res.L2Misses += res.tally[xb.ID].mem.in(nw)
		}
	}
	return res, nil
}

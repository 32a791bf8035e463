// Package core implements the paper's contribution: a code optimization
// that inserts software prefetch instructions into a program so that the
// instruction-cache miss rate drops while the memory contribution to the
// WCET provably does not increase (Theorem 1).
//
// The algorithm follows Section 4 and Supplement S.1 of the paper:
//
//   - a preliminary WCET analysis (internal/wcet) provides t_w, n_w and the
//     WCET path;
//   - a reverse-execution-order walk (Algorithm 3) applies the prefetching
//     update function Û_e (Algorithm 1) to a cache state maintained in
//     reverse reference order. A replacement detected by Property 3 in this
//     backward state identifies a block that cannot survive until its next
//     use — a guaranteed future miss — and the point right behind the
//     replacing reference is the latest insertion point from which a
//     prefetch fill still survives until that use;
//   - the prefetching join function J_SE (Algorithm 2) propagates, at every
//     control-flow split, the state of the branch on the WCET path;
//   - a prefetch is inserted only if it is effective (Definition 10) and
//     profitable (Equation 9), and the insertion relocates code only up to
//     the next alignment firewall (see internal/isa).
//
// On top of the paper's local criterion this implementation re-runs the
// full sound analysis before committing insertions — batched, with
// bisection on failure — and rolls back any batch that would increase τ_w
// or fail to remove WCET-scenario misses; the cleanup pass that removes
// parasitic prefetches commits through the same validate step. Theorem 1
// therefore holds by construction, with the paper's criterion acting as
// the proposal filter (see DESIGN.md).
package core

import (
	"context"
	"fmt"
	"sort"

	"ucp/internal/absint"
	"ucp/internal/cache"
	"ucp/internal/interrupt"
	"ucp/internal/isa"
	"ucp/internal/obs"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// Options tunes the optimizer. The zero value of the Disable* fields runs
// the full joint improvement criterion of Section 4.3; they exist for the
// ablation benchmarks.
type Options struct {
	// Par are the memory timing parameters (hit time, miss penalty, Λ).
	Par wcet.Params
	// MaxInsertions caps the number of prefetches (safety valve; 0 means
	// one prefetch per original instruction).
	MaxInsertions int
	// DisableEffectiveness skips the Λ ≤ t_w(r_{i+1}, r_{j-1}) check of
	// Definition 10 (ablation).
	DisableEffectiveness bool
	// DisableValidation trusts the local criterion and skips the global
	// validate-and-commit re-analysis (ablation; Theorem 1 may then fail).
	DisableValidation bool
	// DisableMissCheck drops the requirement that the targeted reference
	// actually misses in the WCET scenario (ablation).
	DisableMissCheck bool
	// PadToBlock pads every insertion to a whole cache block with nops
	// (ablation). With the aligned layout of internal/isa this is normally
	// counterproductive: the alignment boundaries already confine the
	// relocation, and the pads only add fetch pressure.
	PadToBlock bool
	// ValidationBudget caps the number of sound re-analyses one Optimize
	// call may spend (0 means the default of 700). Candidates are proposed
	// in reverse execution order — synergistic chains stay contiguous, so
	// the batched bisection accepts them in few analyses and the budget
	// only trims the long tail of rejections.
	ValidationBudget int
	// Explain records one Decision per distinct prefetch candidate into
	// Report.Decisions: the costs the joint improvement criterion weighed
	// and the condition that decided the candidate's fate. Off by default —
	// the log costs an allocation per candidate.
	Explain bool
}

// Decision is one entry of the explain report: a prefetch candidate,
// identified by the replacing reference r_i and the replaced memory block,
// together with the quantities the joint improvement criterion weighs — the
// mcost/pcost/rcost terms of Equation 9 — and the condition that decided it.
type Decision struct {
	// Block and Index locate the replacing reference r_i in original
	// program coordinates; Target is the replaced memory block s' the
	// prefetch would load.
	Block  int    `json:"block"`
	Index  int    `json:"index"`
	Target uint64 `json:"target"`

	// Level is the cache level the candidate prefetch fills: 0 for the
	// classic L1 prefetch, 2 for the prefetch-into-L2 candidate class of
	// hierarchy runs.
	Level uint8 `json:"level,omitempty"`

	// At is the chosen insertion point (original coordinates) and Before
	// its placement side; Use is the targeted reference r_j. Meaningful
	// once an insertion point was found — not for the "no-next-use" and
	// "terminator" rejections.
	At     isa.InstrRef `json:"insert_at"`
	Before bool         `json:"insert_before,omitempty"`
	Use    isa.InstrRef `json:"use"`

	// L1Class and L2Class are the per-level analysis verdicts of the
	// targeted use at decision time ("ah", "am", "fm", "nc"); L2Class is
	// empty when no L2 is configured. Filled for decisions that identified
	// a use.
	L1Class string `json:"l1_class,omitempty"`
	L2Class string `json:"l2_class,omitempty"`

	// MCost is the τ_w contribution of the targeted miss — what the
	// prefetch can save (Equation 2 for r_j). PCost is the fetch cost of
	// executing the prefetch itself in the WCET scenario (hit time × the
	// insertion block's n_w). RCost is the τ_w regression observed when a
	// sound re-analysis rejected the insertion; zero everywhere else.
	MCost int64 `json:"mcost"`
	PCost int64 `json:"pcost"`
	RCost int64 `json:"rcost"`

	// Gap is the WCET-scenario time between the insertion point and the
	// use; effectiveness (Definition 10) requires Gap ≥ Lambda.
	Gap    int64 `json:"gap"`
	Lambda int64 `json:"lambda"`

	Effective  bool `json:"effective"`
	Profitable bool `json:"profitable"`
	Inserted   bool `json:"inserted"`
	// Reason is the deciding condition: "inserted", or the first check
	// that failed — "no-next-use", "terminator", "target-is-prefetch",
	// "already-hit", "ineffective", "duplicate", "validation" (the sound
	// re-analysis measured a regression; see RCost), or "pruned" (it was
	// committed, then removed by the cleanup pass as a parasite).
	Reason string `json:"reason"`
}

// Report summarizes one optimization run.
type Report struct {
	Inserted   int // prefetches committed
	Candidates int // replacement points considered

	RejectedTerminator  int // no insertion slot behind the replacing reference
	RejectedNoUse       int // replaced block never used again on the path
	RejectedAlreadyHit  int // next use already classified a hit
	RejectedIneffective int // Definition 10 failed
	RejectedTargetIsPft int // next use is itself a prefetch (Equation 9)
	RejectedDuplicate   int // an equivalent prefetch already sits there
	RejectedValidation  int // τ_w or WCET-miss regression on re-analysis

	Passes        int // reverse sweeps over the program
	Pruned        int // parasitic prefetches removed by the cleanup pass
	Validations   int // sound re-analyses paid for commits and rejections
	TauBefore     int64
	TauAfter      int64
	MissesBefore  int64
	MissesAfter   int64
	FetchesBefore int64
	FetchesAfter  int64
	// L2MissesBefore/After are the WCET-scenario L2 miss counts; zero for
	// single-level runs.
	L2MissesBefore int64
	L2MissesAfter  int64

	// Decisions is the explain report (Options.Explain): one entry per
	// distinct candidate, inserted and rejected alike.
	Decisions []Decision `json:"decisions,omitempty"`
}

// Optimize returns a prefetch-equivalent optimized copy of p for the given
// cache configuration (Problem 1). The input program is not modified.
//
// Optimize is cooperatively cancellable: when ctx is canceled or its
// deadline passes, the current pass (reverse walk or validation analysis)
// unwinds and the call returns a typed interrupt error with no program and
// no report. A canceled optimization therefore never produces output —
// Theorem 1 is all-or-nothing, there is no partially validated result to
// misuse (see DESIGN.md §10).
func Optimize(ctx context.Context, p *isa.Program, cfg cache.Config, opt Options) (*isa.Program, *Report, error) {
	return OptimizeHier(ctx, p, cache.Hier1(cfg), opt)
}

// OptimizeHier optimizes p for the cache hierarchy h. With no L2 configured
// it is exactly Optimize on h.L1 — same analyses, same decisions, same
// output bits. With an L2, the classic L1 candidate phase runs first against
// the hierarchical analysis (fetch outcomes priced per level), then a second
// phase proposes prefetch-into-L2 candidates: Level-2 prefetches whose fill
// installs into the L2 only, converting guaranteed future L2 misses into L2
// hits. Both phases commit through the same validate-or-rollback machinery,
// so Theorem 1 (τ_w never increases) holds for the hierarchy by the same
// construction, with the joint miss count (L1+L2) taking the role of the
// WCET-scenario miss count in Condition 2.
func OptimizeHier(ctx context.Context, p *isa.Program, h cache.Hierarchy, opt Options) (*isa.Program, *Report, error) {
	if err := opt.Par.Valid(); err != nil {
		return nil, nil, err
	}
	if err := h.Valid(); err != nil {
		return nil, nil, err
	}
	cfg := h.L1
	ctx, span := obs.Start(ctx, "core.optimize")
	defer span.End()
	q := p.Clone()
	x, err := vivu.ExpandCtx(ctx, q)
	if err != nil {
		return nil, nil, err
	}
	maxIns := opt.MaxInsertions
	if maxIns == 0 {
		maxIns = p.NInstr()
	}

	res, err := wcet.AnalyzeXHier(ctx, x, h, opt.Par)
	if err != nil {
		return nil, nil, err
	}
	// The seed result's states stay live for the whole optimization (every
	// incremental re-validation chains from them, aliasing what did not
	// change), so hash-consing identical converged states across VIVU
	// contexts here pays once and shrinks the retained set for the entire
	// run. The intern table travels down the result chain.
	res.AI.Intern()
	if res.AI2 != nil {
		res.AI2.Intern()
	}
	rep := &Report{
		TauBefore:      res.TauW,
		MissesBefore:   res.Misses,
		L2MissesBefore: res.L2Misses,
		FetchesBefore:  res.Fetches,
	}

	o := &optimizer{
		x: x, cfg: cfg, h: h, opt: opt, rep: rep, res: res,
		levels:   levelsFor(h, opt.Par),
		rejected: map[candidateKey]bool{},
		ctx:      ctx, chk: interrupt.NewChecker(ctx, 64),
	}
	if opt.Explain {
		o.dec = newDecisionLog()
	}
	o.topoPos = make([]int, len(x.Blocks))
	for i, id := range x.Topo {
		o.topoPos[id] = i
	}
	o.budget = opt.ValidationBudget
	if o.budget == 0 {
		o.budget = 700
	}

	// One candidate phase per level, L1 first: with the L1 candidates
	// settled, the L2 phase proposes Level-2 prefetches for blocks that
	// provably cannot survive in the L2 until their next use.
	for _, lv := range o.levels {
		for rep.Inserted < maxIns && rep.Validations < o.budget {
			rep.Passes++
			cands, err := o.collect(lv)
			if err != nil {
				return nil, nil, err
			}
			if len(cands) == 0 {
				break
			}
			if len(cands) > maxIns-rep.Inserted {
				cands = cands[:maxIns-rep.Inserted]
			}
			n, err := bisect(o, cands, o.trySubset, shiftCandidate)
			if err != nil {
				return nil, nil, err
			}
			rep.Inserted += n
			if n == 0 {
				break
			}
		}
	}

	// Remove the prefetches that failed to convert their target into a hit
	// (see prune.go); they would only waste fetch cycles and DRAM energy.
	if !opt.DisableValidation && rep.Inserted > 0 {
		o.budget += 80 // the cleanup usually needs only a handful of analyses
		if err := o.pruneUseless(); err != nil {
			return nil, nil, err
		}
		rep.Inserted = q.NPrefetch()
	}

	rep.TauAfter = o.res.TauW
	rep.MissesAfter = o.res.Misses
	rep.L2MissesAfter = o.res.L2Misses
	rep.FetchesAfter = o.res.Fetches
	if o.dec != nil {
		rep.Decisions = o.dec.list
	}
	if span != nil {
		span.Attr("candidates", rep.Candidates)
		span.Attr("inserted", rep.Inserted)
		span.Attr("rejected", rep.RejectedTerminator+rep.RejectedNoUse+
			rep.RejectedAlreadyHit+rep.RejectedIneffective+
			rep.RejectedTargetIsPft+rep.RejectedDuplicate+rep.RejectedValidation)
		span.Attr("passes", rep.Passes)
		span.Attr("pruned", rep.Pruned)
		span.Attr("validations", rep.Validations)
		span.Attr("tau_before", rep.TauBefore)
		span.Attr("tau_after", rep.TauAfter)
	}
	// With validation active, Theorem 1 holds by construction; any
	// violation is an internal error. The DisableValidation ablation is
	// exactly the mode that may break the guarantee, so it is exempt.
	if !opt.DisableValidation && rep.TauAfter > rep.TauBefore {
		return nil, nil, fmt.Errorf("core: internal error: τ_w increased from %d to %d", rep.TauBefore, rep.TauAfter)
	}
	if !isa.PrefetchEquivalent(p, q) {
		return nil, nil, fmt.Errorf("core: internal error: output not prefetch-equivalent to input")
	}
	return q, rep, nil
}

type candidateKey struct {
	block, index int    // replacing reference r_i (original coordinates)
	target       uint64 // replaced memory block s'
	level        uint8  // cache level the prefetch fills (0 = L1, 2 = L2)
}

// candidate is one proposed prefetch insertion.
type candidate struct {
	at     isa.InstrRef // insertion anchor (original program coordinates)
	before bool         // insert before `at` instead of after it
	use    isa.InstrRef // the targeted reference r_j
	key    candidateKey // identity, including the level the prefetch fills
	value  int64        // τ_w contribution of the targeted miss (ranking key)
	gap    int64        // WCET-scenario time between insertion point and use
	// l1c/l2c are the per-level verdicts of the use at screen time, for the
	// explain report (empty when Explain is off).
	l1c, l2c string
}

type optimizer struct {
	x   *vivu.Prog
	cfg cache.Config
	// h is the cache hierarchy being optimized for; h.L1 == cfg always.
	h cache.Hierarchy
	// ctx and chk make the run cancellable: the reverse walk polls the
	// amortized checker per expanded block, and every validation re-analysis
	// passes ctx down to the fixpoint.
	ctx context.Context
	chk *interrupt.Checker
	opt Options
	rep *Report
	res *wcet.Result

	// levels holds one candidate phase per cache level, L1 first.
	levels []*level
	// topoPos[id] is the position of expanded block id in x.Topo (the
	// expansion, and hence this order, is stable across insertions).
	topoPos []int

	// visitCnt/visitGen are the epoch-stamped visit counters of the
	// WCET-path walks (findNextUse/wcetSucc): bumping visitEpoch resets
	// every counter in O(1), replacing a per-call map allocation.
	visitCnt   []int32
	visitGen   []uint32
	visitEpoch uint32
	// pathBuf is findNextUse's reusable path buffer; the returned path
	// aliases it and is only valid until the next findNextUse call.
	pathBuf []pathStep

	// rejected memoizes validation failures so later sweeps do not re-pay
	// the full re-analysis for a candidate already refuted.
	rejected map[candidateKey]bool
	// dec is the explain log (nil unless Options.Explain); decRefs keeps
	// each committed decision pinned to its instruction's live coordinates.
	dec     *decisionLog
	decRefs []decRef
	// edits logs every committed program edit in application order, so a
	// bisection branch can move its pending half past what its sibling
	// committed.
	edits []isa.Edit
	// budget caps Validations.
	budget int
}

// level is the optimizer's view of one cache level: the candidate phase
// that proposes prefetches filling it. The proposal mechanism is the same
// reverse-execution-order walk at every level, run at the level's block
// granularity against an LRU image of it: a replacement event identifies a
// block that cannot survive in that cache until its next use — a guaranteed
// future miss there — and the point right behind the replacing reference is
// the latest insertion point from which a fill of that level still survives.
//
// The levels differ only in the Equation 9 accounting of what the prefetch
// can save. An L1 prefetch removes the whole fetch time of the targeted
// miss. A Level-2 prefetch leaves the L1 untouched, so the targeted fetch
// still pays HitCycles + L2HitCycles and only the MissPenalty term is
// removable; its already-hit screen passes only when the use pays more than
// an L2 hit. Every level commits through the same validate-or-rollback
// analysis, with the joint L1+L2 miss count as Condition 2.
type level struct {
	// n is the Level of the prefetches the phase proposes: 0 (L1) or 2.
	n uint8
	// bwCfg is the level's geometry with the policy forced to LRU: the
	// reverse walk's states encode next-use order *as* LRU order (Property
	// 3 reads an eviction in them as "at least `associativity` distinct
	// same-set blocks before the next use"), which holds whatever policy
	// the analyzed cache runs. The walk is only the proposal heuristic —
	// validation (refresh) analyzes under the real policy.
	bwCfg cache.Config
	// hitCost is the already-hit threshold: a use whose WCET-scenario fetch
	// time is at most this leaves nothing for the prefetch to remove.
	hitCost int64
	// penalty is the per-execution cost a prefetch removes from its use; 0
	// means the use's whole fetch time.
	penalty int64

	// bwOut caches the backward cache state at every expanded block's exit,
	// and bwRes records which analysis result it was computed for.
	// backward() revalidates the pair against o.res by pointer identity, so
	// a refresh invalidates it and a rollback (which restores the previous
	// result pointer) revives it — invalidation is structural, not by
	// convention.
	bwOut []*cache.State
	bwRes *wcet.Result
	// bwScratch is the reusable walking state of collect's reverse sweep.
	bwScratch *cache.State
}

// levelsFor returns the candidate phases for hierarchy h, L1 first.
func levelsFor(h cache.Hierarchy, par wcet.Params) []*level {
	l1 := &level{bwCfg: h.L1, hitCost: par.HitCycles}
	l1.bwCfg.Policy = cache.LRU
	if !h.HasL2() {
		return []*level{l1}
	}
	l2 := &level{n: 2, bwCfg: h.L2, hitCost: par.HitCycles + par.L2HitCycles, penalty: par.MissPenalty}
	l2.bwCfg.Policy = cache.LRU
	return []*level{l1, l2}
}

// ai returns the level's abstract interpretation within res.
func (lv *level) ai(res *wcet.Result) *absint.Result {
	if lv.n == 2 {
		return res.AI2
	}
	return res.AI
}

// mcost is the τ_w contribution a prefetch at this level removes from the
// targeted use (Equation 2 for r_j, restricted to the removable term).
func (lv *level) mcost(res *wcet.Result, use vivu.Ref) int64 {
	if lv.penalty == 0 {
		return res.Contribution(use)
	}
	return lv.penalty * res.RefCount(use)
}

// collect runs one reverse-execution-order sweep (Algorithm 3) at level lv
// and returns the prefetch candidates that pass every local check,
// most-downstream first. The sweep polls the cancellation checker once per
// expanded block.
func (o *optimizer) collect(lv *level) ([]candidate, error) {
	res := o.res
	order := res.X.Topo
	seen := map[candidateKey]bool{}
	var out []candidate
	bw := o.backward(lv)
	if lv.bwScratch == nil {
		lv.bwScratch = cache.NewState(lv.bwCfg)
	}
	st := lv.bwScratch
	for ti := len(order) - 1; ti >= 0; ti-- {
		if err := o.chk.Check(); err != nil {
			return nil, err
		}
		xbID := order[ti]
		if !res.OnWCETPath(xbID) {
			continue
		}
		st.CopyFrom(bw[xbID])
		eff := lv.ai(res).Effective[xbID]
		orig := res.X.Blocks[xbID].Orig
		for i := len(eff) - 1; i >= 0; i-- {
			r := vivu.Ref{XB: xbID, Index: i}
			evicted := o.stepBackward(lv, st, eff, isa.InstrRef{Block: orig, Index: i})
			if evicted == cache.InvalidBlock {
				continue
			}
			if c, ok := o.screen(lv, r, evicted); ok && !seen[c.key] {
				seen[c.key] = true
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// screen applies the cheap parts of the joint improvement criterion
// (Section 4.3) to one replacement event at level lv and builds the
// candidate.
func (o *optimizer) screen(lv *level, r vivu.Ref, evicted uint64) (candidate, bool) {
	res := o.res
	o.rep.Candidates++
	origRef := res.X.InstrRef(r)

	key := candidateKey{origRef.Block, origRef.Index, evicted, lv.n}
	if o.rejected[key] {
		return candidate{}, false
	}
	use, gap, path, found := o.findNextUse(r, evicted, lv.bwCfg.BlockBytes)
	if !found {
		o.rep.RejectedNoUse++
		if o.dec != nil {
			o.explainReject(key, "no-next-use", Decision{})
		}
		return candidate{}, false
	}
	anchor := o.slidePlacement(path, use)
	at, before, ok := o.insertionPoint(anchor, res.X.InstrRef(anchor))
	mcost := lv.mcost(res, use)
	if !ok {
		o.rep.RejectedTerminator++
		if o.dec != nil {
			o.explainReject(key, "terminator", Decision{
				Use: res.X.InstrRef(use), MCost: mcost, Gap: gap,
			})
		}
		return candidate{}, false
	}
	useRef := res.X.InstrRef(use)
	if res.Prog.Instr(useRef).Kind == isa.KindPrefetch {
		// Equation 9: profit is zero when r_j is a prefetch.
		o.rep.RejectedTargetIsPft++
		if o.dec != nil {
			o.explainReject(key, "target-is-prefetch", Decision{
				At: at, Before: before, Use: useRef,
				PCost: o.explainPCost(at.Block), Gap: gap,
				Effective: gap >= o.opt.Par.Lambda,
			})
		}
		return candidate{}, false
	}
	if !o.opt.DisableMissCheck && res.RefTime(use) <= lv.hitCost {
		o.rep.RejectedAlreadyHit++
		if o.dec != nil {
			l1c, l2c := o.classOf(use)
			o.explainReject(key, "already-hit", Decision{
				At: at, Before: before, Use: useRef,
				L1Class: l1c, L2Class: l2c,
				MCost: mcost, PCost: o.explainPCost(at.Block), Gap: gap,
				Effective: gap >= o.opt.Par.Lambda,
			})
		}
		return candidate{}, false
	}
	if !o.opt.DisableEffectiveness && gap < o.opt.Par.Lambda {
		// Definition 10: Λ must not exceed the WCET-scenario time spent
		// between the insertion point and the use.
		o.rep.RejectedIneffective++
		if o.dec != nil {
			o.explainReject(key, "ineffective", Decision{
				At: at, Before: before, Use: useRef,
				MCost: mcost, PCost: o.explainPCost(at.Block), Gap: gap,
				Profitable: mcost > o.explainPCost(at.Block),
			})
		}
		return candidate{}, false
	}
	if o.duplicateAt(at, evicted, lv) {
		o.rep.RejectedDuplicate++
		if o.dec != nil {
			o.explainReject(key, "duplicate", Decision{
				At: at, Before: before, Use: useRef,
				MCost: mcost, PCost: o.explainPCost(at.Block), Gap: gap,
				Effective: true,
			})
		}
		return candidate{}, false
	}
	c := candidate{
		at: at, before: before, use: useRef, key: key,
		value: mcost, gap: gap,
	}
	if o.dec != nil {
		c.l1c, c.l2c = o.classOf(use)
	}
	return c, true
}

// classOf returns the per-level classification strings of a reference, for
// the explain report; the L2 verdict is empty without a configured L2.
func (o *optimizer) classOf(use vivu.Ref) (l1, l2 string) {
	l1 = o.res.AI.Class[use.XB][use.Index].String()
	if o.res.AI2 != nil {
		l2 = o.res.AI2.Class[use.XB][use.Index].String()
	}
	return l1, l2
}

// explainPCost is insertionFetchCost gated on the explain log being live,
// so the disabled path never pays the block scan.
func (o *optimizer) explainPCost(block int) int64 {
	if o.dec == nil {
		return 0
	}
	return o.insertionFetchCost(block)
}

// validate is the optimizer's one commit step. It snapshots the program,
// applies change (which reports the edits it made), and re-analyzes soundly.
// When accept(prev, cur) holds the edits stay: they join o.edits, and the
// explain coordinates move through them (a removed decision becomes
// "pruned"). Otherwise the program and the previous result are restored —
// which also revives the backward-state cache, keyed on the result pointer.
func (o *optimizer) validate(change func(*isa.Program) []isa.Edit, accept func(prev, cur *wcet.Result) bool) (bool, error) {
	prog := o.res.Prog
	snapshot := make([][]isa.Instr, len(prog.Blocks))
	for i, b := range prog.Blocks {
		snapshot[i] = append([]isa.Instr(nil), b.Instrs...)
	}
	edits := change(prog)
	prev := o.res
	if err := o.refresh(); err != nil {
		return false, err
	}
	if !accept(prev, o.res) {
		for i, b := range prog.Blocks {
			b.Instrs = snapshot[i]
		}
		o.res = prev
		return false, nil
	}
	o.edits = append(o.edits, edits...)
	o.explainEdits(edits)
	return true, nil
}

// bisect commits as many of items as validation accepts: try validates the
// whole set at once, and on rejection bisect recurses on the halves, moving
// the pending half (with shift) past the edits its sibling committed.
func bisect[T any](o *optimizer, items []T, try func([]T) (bool, error), shift func(T, isa.Edit) T) (int, error) {
	if len(items) == 0 || o.rep.Validations >= o.budget {
		return 0, nil
	}
	ok, err := try(items)
	if err != nil {
		return 0, err
	}
	if ok {
		return len(items), nil
	}
	if len(items) == 1 {
		return 0, nil
	}
	mid := len(items) / 2
	mark := len(o.edits)
	n1, err := bisect(o, items[:mid], try, shift)
	if err != nil {
		return n1, err
	}
	right := items[mid:]
	if len(o.edits) > mark {
		right = append([]T(nil), right...)
		for i := range right {
			for _, e := range o.edits[mark:] {
				right[i] = shift(right[i], e)
			}
		}
	}
	n2, err := bisect(o, right, try, shift)
	return n1 + n2, err
}

// shiftCandidate moves a pending candidate's anchor and use through e.
func shiftCandidate(c candidate, e isa.Edit) candidate {
	c.at, _ = e.Shift(c.at)
	c.use, _ = e.Shift(c.use)
	return c
}

// trySubset inserts the candidates (descending program position, so pending
// anchors stay valid) and keeps the insertions only when τ_w does not grow
// (Condition 1 / Lemma 2) and the WCET-scenario miss count shrinks
// (Condition 2). A rejected single candidate is refuted for good.
func (o *optimizer) trySubset(cands []candidate) (bool, error) {
	sorted := append([]candidate(nil), cands...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].at.Block != sorted[j].at.Block {
			return sorted[i].at.Block > sorted[j].at.Block
		}
		return sorted[i].at.Index > sorted[j].at.Index
	})
	pads := 0
	if o.opt.PadToBlock {
		pads = o.cfg.BlockBytes/isa.InstrBytes - 1
	}
	// Each candidate's prefetch (plus pads) is one edit, edits[ci].
	var edits []isa.Edit
	insert := func(prog *isa.Program) []isa.Edit {
		edits = make([]isa.Edit, 0, len(sorted))
		for ci := range sorted {
			c := &sorted[ci]
			// Move the use past this batch's earlier insertions; the anchor
			// is weakly upstream of them by the sort order and stays put.
			for _, e := range edits {
				c.use, _ = e.Shift(c.use)
			}
			ins := isa.Instr{Kind: isa.KindPrefetch, Level: c.key.level, Target: c.use}
			var pos isa.InstrRef
			if c.before {
				pos = prog.InsertInstrBefore(c.at, ins)
			} else {
				pos = prog.InsertInstr(c.at, ins)
			}
			cur := pos
			for k := 0; k < pads; k++ {
				cur = prog.InsertInstr(cur, isa.Instr{Kind: isa.KindPad})
			}
			edits = append(edits, isa.Edit{At: pos, N: 1 + pads})
		}
		return edits
	}
	var rcost int64
	// Condition 2 counts misses jointly across the hierarchy: an L1
	// prefetch removes an L1 miss, a Level-2 prefetch removes an L2 miss,
	// and either kind must not re-introduce misses at the other level. For
	// single-level runs L2Misses is identically zero and this is exactly
	// the original condition.
	ok, err := o.validate(insert, func(prev, cur *wcet.Result) bool {
		rcost = cur.TauW - prev.TauW
		return o.opt.DisableValidation ||
			(cur.TauW <= prev.TauW && cur.Misses+cur.L2Misses < prev.Misses+prev.L2Misses)
	})
	switch {
	case err != nil:
		return false, err
	case ok && o.dec != nil:
		for ci, c := range sorted {
			// The prefetch landed at edits[ci].At; later edits of the batch
			// may have moved it since.
			pos := edits[ci].At
			for _, e := range edits[ci+1:] {
				pos, _ = e.Shift(pos)
			}
			o.explainInsert(c, pos)
		}
	case !ok && len(cands) == 1:
		o.rejected[cands[0].key] = true
		o.rep.RejectedValidation++
		o.explainValidationReject(cands[0], rcost)
	}
	return ok, nil
}

// testRefreshCheck, when set by the differential tests, receives every
// incrementally refreshed result so it can be compared against a
// from-scratch analysis of the same program state.
var testRefreshCheck func(*wcet.Result)

// refresh re-runs the WCET analysis after a program mutation, incrementally
// seeded from the current result: only the blocks the mutation actually
// perturbed (plus their forward closure) are re-solved. Its one caller is
// validate. The backward-state cache needs no explicit reset here — it is
// keyed on the result pointer (see backward()), so replacing o.res
// invalidates it exactly once per refresh.
func (o *optimizer) refresh() error {
	res, err := wcet.AnalyzeXHierFrom(o.ctx, o.x, o.h, o.opt.Par, o.res)
	if err != nil {
		return err
	}
	if testRefreshCheck != nil {
		testRefreshCheck(res)
	}
	o.rep.Validations++
	o.res = res
	return nil
}

// insertionPoint picks where π goes: immediately after r inside its block,
// or — when r is a block terminator — at the head of the successor block on
// the WCET path (the edge (r_i, r_{i+1}) of the ACFG then crosses a block
// boundary). The returned flag selects InsertInstrBefore semantics.
func (o *optimizer) insertionPoint(r vivu.Ref, origRef isa.InstrRef) (isa.InstrRef, bool, bool) {
	res := o.res
	origBlk := res.Prog.Blocks[origRef.Block]
	k := origBlk.Instrs[origRef.Index].Kind
	if origRef.Index != len(origBlk.Instrs)-1 || (k != isa.KindBranch && k != isa.KindJump) {
		return origRef, false, true
	}
	// Terminator: place the prefetch at the head of the WCET successor.
	xb := res.X.Blocks[r.XB]
	bestN := int64(-1)
	best := -1
	for _, e := range xb.Succs {
		n := res.Nw[e.To]
		switch {
		case n > bestN:
			bestN, best = n, e.To
		case n == bestN && best != -1 && o.topoPos[e.To] < o.topoPos[best]:
			best = e.To
		}
	}
	if best == -1 || bestN <= 0 {
		return isa.InstrRef{}, false, false
	}
	return isa.InstrRef{Block: res.X.Blocks[best].Orig, Index: 0}, true, true
}

// duplicateAt reports whether an equivalent prefetch (same target block at
// the same cache level) already sits adjacent to the insertion point.
func (o *optimizer) duplicateAt(origRef isa.InstrRef, target uint64, lv *level) bool {
	b := o.res.Prog.Blocks[origRef.Block]
	for _, idx := range []int{origRef.Index, origRef.Index + 1, origRef.Index + 2} {
		if idx < 0 || idx >= len(b.Instrs) {
			continue
		}
		in := b.Instrs[idx]
		if in.Kind != isa.KindPrefetch || (in.Level == 2) != (lv.n == 2) {
			continue
		}
		if o.res.Lay.MemBlock(in.Target, lv.bwCfg.BlockBytes) == target {
			return true
		}
	}
	return false
}

// memBlockOf maps a reference to its memory block at block size bb.
func (o *optimizer) memBlockOf(r vivu.Ref, bb int) uint64 {
	return o.res.Lay.MemBlock(o.res.X.InstrRef(r), bb)
}

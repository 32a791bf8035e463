package core

import (
	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/vivu"
)

// This file implements the state bookkeeping of the reverse analysis of
// Section 4.2 / Supplement S.1.
//
// The reverse walk maintains a cache state built by pushing memory blocks in
// *reverse* execution order (the states of Figure 1b). At a program point P
// this state holds, per cache set, the blocks whose next use after P comes
// soonest — with LRU order equal to next-use order. Applying Property 3 to
// two successive backward states therefore identifies, at each reference
// r_i, a block s' that cannot survive in cache until its next use no matter
// what the forward execution cached before P: at least `associativity`
// distinct same-set blocks are referenced between r_i and that use. Every
// such s' is a guaranteed future miss (a conflict or cold miss), and the
// point right behind r_i is the *latest* insertion point from which a
// prefetch fill of s' still survives until the use — exactly where
// Algorithm 1 places π_{s'}.
//
// At control-flow splits the backward state is propagated from the successor
// on the WCET path, mirroring the prefetching join function J_SE of
// Algorithm 2. Residual loop back edges are followed (the other-iterations
// context sees the next iteration's needs), with a bounded fixpoint.

// backward returns level lv's per-block backward exit states for the
// current analysis result, recomputing them only when o.res changed since
// the last computation. Keying the cache on the result pointer makes
// invalidation exact: refresh() swaps the pointer (stale states can never be
// read), and a rollback that restores the previous result revives its
// still-valid states for free.
func (o *optimizer) backward(lv *level) []*cache.State {
	if lv.bwRes != o.res {
		lv.bwOut = o.backwardOut(lv)
		lv.bwRes = o.res
	}
	return lv.bwOut
}

// backwardOut computes, for every expanded block, the backward cache state
// at the block's *exit* (i.e. the state describing the references executed
// after the block on the WCET path). Each block gets dedicated in/out
// states up front and the rounds copy into them, so one call allocates the
// states once instead of cloning per block per round. (bwOut must not alias
// bwIn of the successor: a single-block residual loop is its own WCET
// successor, and its exit state must be the pre-update value.)
func (o *optimizer) backwardOut(lv *level) []*cache.State {
	res := o.res
	x := res.X
	n := len(x.Blocks)
	bwIn := make([]*cache.State, n)
	bwOut := make([]*cache.State, n)
	valid := make([]bool, n)
	for id := range bwIn {
		bwIn[id] = cache.NewState(lv.bwCfg)
		bwOut[id] = cache.NewState(lv.bwCfg)
	}

	// Residual back edges make the other-iterations context depend on its
	// own entry state; a few rounds approximate the cyclic future well
	// enough for the proposal mechanism (validation is exact anyway).
	for round := 0; round < 3; round++ {
		for ti := len(x.Topo) - 1; ti >= 0; ti-- {
			id := x.Topo[ti]
			succ := o.wcetSuccBlock(id)
			if succ == -1 || !valid[succ] {
				bwOut[id].Reset()
			} else {
				bwOut[id].CopyFrom(bwIn[succ])
			}
			bwIn[id].CopyFrom(bwOut[id])
			o.applyBackward(lv, bwIn[id], id)
			valid[id] = true
		}
	}
	return bwOut
}

// wcetSuccBlock picks the successor of expanded block id on the WCET path:
// maximal n_w, ties to the earliest topological position; residual back
// edges participate (the backward window of a loop body sees the next
// iteration).
func (o *optimizer) wcetSuccBlock(id int) int {
	res := o.res
	xb := res.X.Blocks[id]
	bestN := int64(-1)
	best := -1
	for _, e := range xb.Succs {
		n := res.Nw[e.To]
		if n <= 0 {
			continue
		}
		switch {
		case n > bestN:
			bestN, best = n, e.To
		case n == bestN && best != -1 && o.topoPos[e.To] < o.topoPos[best]:
			best = e.To
		}
	}
	return best
}

// applyBackward pushes the references of expanded block id through a
// backward state of level lv, in reverse order.
func (o *optimizer) applyBackward(lv *level, st *cache.State, id int) {
	orig := o.res.X.Blocks[id].Orig
	for i := len(o.res.Prog.Blocks[orig].Instrs) - 1; i >= 0; i-- {
		o.stepBackward(lv, st, vivu.Ref{XB: id, Index: i})
	}
}

// stepBackward pushes the reference r through a backward state of level lv
// and returns the block the access replaced (cache.InvalidBlock if none). A
// prefetch's own fetch is a reference like any other; when its fill is
// effective at this level it satisfies the future use of the target block,
// so the target is dropped from the window (upstream code no longer needs to
// preserve it). A prefetch filling another level — an L1 prefetch seen from
// the L2, whose fill passes through at an unknown time — is never effective
// here and cannot be relied on.
func (o *optimizer) stepBackward(lv *level, st *cache.State, r vivu.Ref) uint64 {
	lay := o.res.Lay
	ref := isa.InstrRef{Block: o.res.X.Blocks[r.XB].Orig, Index: r.Index}
	if lv.ai(o.res).Effective(r.XB, r.Index) { // only prefetches are ever effective
		st.Remove(lay.MemBlock(o.res.Prog.Instr(ref).Target, lv.bwCfg.BlockBytes))
	}
	_, evicted := st.Access(lay.MemBlock(ref, lv.bwCfg.BlockBytes))
	return evicted
}

// pathStep is one reference on the WCET-path walk towards the next use,
// with the time accumulated strictly after it up to the use (the
// t_w(r_{i+1}, r_{j-1}) of Equation 5 when inserting right behind it).
type pathStep struct {
	ref vivu.Ref
	// gapAfter is filled in by findNextUse once the use is located.
	gapAfter int64
}

// findNextUse walks the WCET path forward from the reference following r and
// returns the first reference to memory block target, the WCET-scenario
// time spent strictly between r and that use (Equation 5), and the walked
// path (for downstream placement sliding). The target is matched at block
// size bb, the granularity of the level the candidate fills.
//
// The walk follows the WCET successors of the expanded graph. A residual
// back edge may be traversed once per loop instance — emulating the exit of
// the other-iterations context towards the code after the loop — after
// which the already-walked blocks are not re-entered.
// The returned path aliases the optimizer's reusable buffer and is only
// valid until the next findNextUse call.
func (o *optimizer) findNextUse(r vivu.Ref, target uint64, bb int) (use vivu.Ref, gap int64, path []pathStep, found bool) {
	res := o.res
	x := res.X
	o.beginVisits()
	o.addVisit(r.XB)
	cur := r
	gap = 0
	limit := x.NRefs() + len(x.Blocks)
	// The walk grows buf, not the named result, which a failed search
	// returns as nil: the buffer it grew is kept either way.
	buf := append(o.pathBuf[:0], pathStep{ref: r})
	defer func() { o.pathBuf = buf[:0] }()
	for steps := 0; steps <= limit; steps++ {
		next, ok := o.wcetSucc(cur)
		if !ok {
			return vivu.Ref{}, 0, nil, false
		}
		if next.Index == 0 {
			o.addVisit(next.XB)
		}
		if o.memBlockOf(next, bb) == target {
			// Backfill the remaining time after every path position.
			acc := int64(0)
			for i := len(buf) - 1; i >= 0; i-- {
				buf[i].gapAfter = acc
				if i > 0 {
					acc += res.RefTime(buf[i].ref)
				}
			}
			return next, gap, buf, true
		}
		gap += res.RefTime(next)
		buf = append(buf, pathStep{ref: next})
		cur = next
	}
	return vivu.Ref{}, 0, nil, false
}

// beginVisits starts a fresh visit-counting epoch; counters from earlier
// epochs read as zero without being cleared.
func (o *optimizer) beginVisits() {
	if o.visitCnt == nil {
		o.visitCnt = make([]int32, len(o.x.Blocks))
		o.visitGen = make([]uint32, len(o.x.Blocks))
	}
	o.visitEpoch++
	if o.visitEpoch == 0 { // wraparound: stale stamps could read as current
		for i := range o.visitGen {
			o.visitGen[i] = 0
		}
		o.visitEpoch = 1
	}
}

func (o *optimizer) visitsOf(id int) int32 {
	if o.visitGen[id] != o.visitEpoch {
		return 0
	}
	return o.visitCnt[id]
}

func (o *optimizer) addVisit(id int) {
	if o.visitGen[id] != o.visitEpoch {
		o.visitGen[id] = o.visitEpoch
		o.visitCnt[id] = 0
	}
	o.visitCnt[id]++
}

// slidePlacement picks the best insertion anchor along the walked path: the
// latest position whose execution count does not exceed the use's (so a
// prefetch for a post-loop block hoists out of the loop body instead of
// re-issuing every iteration), still leaving at least Λ of WCET time before
// the use. The detection point itself is the fallback.
func (o *optimizer) slidePlacement(path []pathStep, use vivu.Ref) vivu.Ref {
	res := o.res
	useN := res.Nw[use.XB]
	anchor := path[0].ref
	if res.Nw[anchor.XB] <= useN {
		return anchor
	}
	lambda := o.opt.Par.Lambda
	if o.opt.DisableEffectiveness {
		lambda = 0
	}
	for i := len(path) - 1; i > 0; i-- {
		p := path[i]
		if res.Nw[p.ref.XB] <= useN && p.gapAfter >= lambda {
			return p.ref
		}
	}
	return anchor
}

// wcetSucc returns the reference executed after cur on the WCET path: the
// next instruction of the block, or the entry of the chosen successor
// block. Successors on the WCET path (n_w > 0) are preferred by descending
// n_w, then by topological position; a block already visited twice in this
// walk (per the current visit epoch) is never re-entered, which bounds the
// walk while still letting it leave a residual loop body through its back
// edge once.
func (o *optimizer) wcetSucc(cur vivu.Ref) (vivu.Ref, bool) {
	res := o.res
	x := res.X
	xb := x.Blocks[cur.XB]
	if cur.Index+1 < len(res.Prog.Blocks[xb.Orig].Instrs) {
		return vivu.Ref{XB: cur.XB, Index: cur.Index + 1}, true
	}
	bestN := int64(-1)
	best := -1
	for _, e := range xb.Succs {
		if res.Nw[e.To] <= 0 || o.visitsOf(e.To) >= 2 {
			continue
		}
		// Prefer fresh blocks over revisits so the second arrival at a
		// residual header immediately takes the exit.
		n := res.Nw[e.To] - int64(o.visitsOf(e.To))*(1<<40)
		switch {
		case n > bestN:
			bestN, best = n, e.To
		case n == bestN && best != -1 && o.topoPos[e.To] < o.topoPos[best]:
			best = e.To
		}
	}
	if best == -1 {
		return vivu.Ref{}, false
	}
	return vivu.Ref{XB: best, Index: 0}, true
}

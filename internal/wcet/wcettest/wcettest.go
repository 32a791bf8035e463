// Package wcettest holds the from-scratch comparison that the
// differentials of several packages share.
package wcettest

import (
	"context"
	"fmt"

	"ucp/internal/absint"
	"ucp/internal/isa"
	"ucp/internal/wcet"
)

// SameAsFull compares r with a from-scratch analysis of its program at the
// same AlwaysMiss demand: every level's exit states, verdicts and
// effectiveness bits, the WCET vectors and totals, and the layout's
// addresses. A chain's demand is derived from the am its first analysis
// was given (see wcet.AnalyzeXHierFrom), and the last level's
// HasAlwaysMiss gives back an am that derives the same demand at every
// level.
func SameAsFull(r *wcet.Result) error {
	top := r.AI
	if r.AI2 != nil {
		top = r.AI2
	}
	full, err := wcet.AnalyzeXHierFrom(context.Background(), r.X, r.Hier, r.Par, nil, top.HasAlwaysMiss())
	if err != nil {
		return err
	}
	if err := SameLevel(r.AI, full.AI); err != nil {
		return fmt.Errorf("L1: %v", err)
	}
	if (r.AI2 == nil) != (full.AI2 == nil) {
		return fmt.Errorf("L2 analysis present in only one result")
	}
	if r.AI2 != nil {
		if err := SameLevel(r.AI2, full.AI2); err != nil {
			return fmt.Errorf("L2: %v", err)
		}
	}
	if r.TauW != full.TauW || r.Misses != full.Misses || r.L2Misses != full.L2Misses || r.Fetches != full.Fetches {
		return fmt.Errorf("τ_w/misses/L2 misses/fetches %d/%d/%d/%d, from scratch %d/%d/%d/%d",
			r.TauW, r.Misses, r.L2Misses, r.Fetches, full.TauW, full.Misses, full.L2Misses, full.Fetches)
	}
	if len(r.Cost) != len(full.Cost) || len(r.Extra) != len(full.Extra) || len(r.Nw) != len(full.Nw) {
		return fmt.Errorf("vector lengths %d/%d/%d, from scratch %d", len(r.Cost), len(r.Extra), len(r.Nw), len(full.Nw))
	}
	for id := range full.Nw {
		if r.Cost[id] != full.Cost[id] || r.Extra[id] != full.Extra[id] || r.Nw[id] != full.Nw[id] {
			return fmt.Errorf("block %d cost/extra/n_w %d/%d/%d, from scratch %d/%d/%d",
				id, r.Cost[id], r.Extra[id], r.Nw[id], full.Cost[id], full.Extra[id], full.Nw[id])
		}
	}
	if r.Lay.NInstr() != full.Lay.NInstr() {
		return fmt.Errorf("layout covers %d instructions, from scratch %d", r.Lay.NInstr(), full.Lay.NInstr())
	}
	for _, b := range r.Prog.Blocks {
		for i := range b.Instrs {
			ref := isa.InstrRef{Block: b.ID, Index: i}
			if got, want := r.Lay.Addr(ref), full.Lay.Addr(ref); got != want {
				return fmt.Errorf("address of %v %#x, from scratch %#x", ref, got, want)
			}
		}
	}
	return nil
}

// SameLevel compares one level of a re-analysis with a from-scratch
// analysis of the same program: every exit state, verdict and
// effectiveness bit.
func SameLevel(inc, full *absint.Result) error {
	if id := inc.DiffStates(full); id >= 0 {
		return fmt.Errorf("exit state of block %d diverges", id)
	}
	for id := range full.Class {
		if len(inc.Class[id]) != len(full.Class[id]) {
			return fmt.Errorf("block %d: %d verdicts, from scratch %d", id, len(inc.Class[id]), len(full.Class[id]))
		}
		for i, want := range full.Class[id] {
			if got := inc.Class[id][i]; got != want {
				return fmt.Errorf("class[%d][%d] %v, from scratch %v", id, i, got, want)
			}
			if inc.Effective(id, i) != full.Effective(id, i) {
				return fmt.Errorf("effectiveness[%d][%d] diverges", id, i)
			}
		}
	}
	return nil
}

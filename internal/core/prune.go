package core

import (
	"sort"

	"ucp/internal/isa"
	"ucp/internal/wcet"
)

// The batched commit criterion accepts a set of prefetches when the set as
// a whole removes WCET-scenario misses. Individual members can still be
// parasites: their own target keeps missing (another member or a layout
// shift did the real work), so they contribute nothing but fetch cycles and
// a DRAM transfer per execution — pure dynamic-energy waste (they are the
// reason Condition 2 talks about the miss *rate*, not just the WCET).
//
// pruneUseless runs the insertion's commit step in reverse: it bisects over
// the prefetches, validating their *removal*, and keeps a removal only when
// τ_w does not grow and no WCET-scenario miss reappears. Removing a useful
// prefetch re-introduces its miss and is rolled back; removing a parasite
// is accepted and even shaves its fetch time off τ_w.
func (o *optimizer) pruneUseless() error {
	for {
		if err := o.chk.Check(); err != nil {
			return err
		}
		refs := o.collectPrefetches()
		if len(refs) == 0 {
			return nil
		}
		n, err := bisect(o, refs, func(refs []isa.InstrRef) (bool, error) {
			return o.validate(removePrefetches(refs), keepsMisses)
		}, shiftRef)
		if err != nil {
			return err
		}
		o.rep.Pruned += n
		if n == 0 || o.rep.Validations >= o.budget {
			return nil
		}
	}
}

// collectPrefetches lists every prefetch instruction, descending program
// position so earlier removals do not shift later coordinates.
func (o *optimizer) collectPrefetches() []isa.InstrRef {
	var out []isa.InstrRef
	for _, b := range o.res.Prog.Blocks {
		for i, in := range b.Instrs {
			if in.Kind == isa.KindPrefetch {
				out = append(out, isa.InstrRef{Block: b.ID, Index: i})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Block != out[j].Block {
			return out[i].Block > out[j].Block
		}
		return out[i].Index > out[j].Index
	})
	return out
}

// removePrefetches is pruning's change for validate: it deletes the
// prefetches at refs (descending program position) together with their
// trailing pads, when the PadToBlock ablation added them — one edit each.
func removePrefetches(refs []isa.InstrRef) func(*isa.Program) []isa.Edit {
	return func(prog *isa.Program) []isa.Edit {
		edits := make([]isa.Edit, 0, len(refs))
		for _, ref := range refs {
			// Remove trailing pads first so the prefetch's index stays valid.
			b := prog.Blocks[ref.Block]
			n := 1
			for ref.Index+1 < len(b.Instrs) && b.Instrs[ref.Index+1].Kind == isa.KindPad {
				prog.RemoveInstr(isa.InstrRef{Block: ref.Block, Index: ref.Index + 1})
				n++
			}
			prog.RemoveInstr(ref)
			edits = append(edits, isa.Edit{At: ref, N: -n})
		}
		return edits
	}
}

// keepsMisses accepts a removal when τ_w does not grow and, counting misses
// jointly across the hierarchy like trySubset's Condition 2, no miss
// reappears at either level.
func keepsMisses(prev, cur *wcet.Result) bool {
	return cur.TauW <= prev.TauW && cur.Misses+cur.L2Misses <= prev.Misses+prev.L2Misses
}

// shiftRef moves a pending prefetch reference through e.
func shiftRef(r isa.InstrRef, e isa.Edit) isa.InstrRef {
	r, _ = e.Shift(r)
	return r
}

// Package locking implements the static instruction-cache locking baseline
// the paper positions itself against (Section 2.2): the cache is preloaded
// with a fixed set of memory blocks and locked, so accesses to those blocks
// always hit and every other access goes to memory. Locking trades
// performance (and, as technology scales, energy) for trivially predictable
// timing — the trade-off the unlocked-prefetching technique is designed to
// avoid.
//
// A locked cache never replaces anything, so the selection is independent of
// the configuration's replacement policy: only the geometry (sets × ways)
// matters, and the same baseline applies to LRU, FIFO, and PLRU sweeps.
package locking

import (
	"context"
	"sort"

	"ucp/internal/cache"
	"ucp/internal/isa"
	"ucp/internal/obs"
	"ucp/internal/vivu"
	"ucp/internal/wcet"
)

// Selection is a chosen locked cache content.
type Selection struct {
	// Blocks maps each locked memory block to true.
	Blocks map[uint64]bool
	// TauW is the memory contribution to the WCET under the locked cache:
	// exactly computable without abstract interpretation, since hits and
	// misses are fixed by the selection.
	TauW int64
	// Misses is the WCET-scenario miss count under the selection.
	Misses int64
}

// Select greedily picks the locked content that minimizes the WCET: memory
// blocks are ranked by their WCET-scenario access frequency (the classical
// frequency-based content selection for static locking), respecting the
// per-set way limits of the configuration.
func Select(ctx context.Context, p *isa.Program, cfg cache.Config, par wcet.Params) (*Selection, error) {
	ctx, span := obs.Start(ctx, "locking.select")
	defer span.End()
	x, err := vivu.ExpandCtx(ctx, p)
	if err != nil {
		return nil, err
	}
	// A cost vector of all-miss times yields the execution counts of the
	// worst-case path of the *locked* machine, where every reference costs
	// the same; the actual lock selection then fixes per-block costs.
	res, err := wcet.AnalyzeXHier(ctx, x, cache.Hier1(cfg), par)
	if err != nil {
		return nil, err
	}
	lay := res.Lay

	// Accumulate WCET-scenario access counts per memory block.
	weight := map[uint64]int64{}
	for _, xb := range x.Blocks {
		n := res.Nw[xb.ID]
		if n == 0 {
			continue
		}
		for i := range p.Blocks[xb.Orig].Instrs {
			blk := lay.MemBlock(isa.InstrRef{Block: xb.Orig, Index: i}, cfg.BlockBytes)
			weight[blk] += n
		}
	}

	type cand struct {
		blk uint64
		w   int64
	}
	bySet := map[int][]cand{}
	for blk, w := range weight {
		si := cfg.SetOf(blk)
		bySet[si] = append(bySet[si], cand{blk, w})
	}
	sel := &Selection{Blocks: map[uint64]bool{}}
	for si, cands := range bySet {
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			return cands[i].blk < cands[j].blk
		})
		limit := cfg.Assoc
		if limit > len(cands) {
			limit = len(cands)
		}
		for _, c := range cands[:limit] {
			sel.Blocks[c.blk] = true
		}
		_ = si
	}

	// The locked WCET: per reference, hit time if locked else miss time,
	// weighted by the WCET counts of the locked machine. (Counts are
	// recomputed with locked costs so the maximization is consistent.)
	cost := make([]int64, len(x.Blocks))
	for _, xb := range x.Blocks {
		var c int64
		for i := range p.Blocks[xb.Orig].Instrs {
			blk := lay.MemBlock(isa.InstrRef{Block: xb.Orig, Index: i}, cfg.BlockBytes)
			if sel.Blocks[blk] {
				c += par.HitCycles
			} else {
				c += par.MissCycles()
			}
		}
		cost[xb.ID] = c
	}
	nw, tau, err := wcet.SolveCounts(x, cost)
	if err != nil {
		return nil, err
	}
	sel.TauW = tau
	for _, xb := range x.Blocks {
		if nw[xb.ID] == 0 {
			continue
		}
		for i := range p.Blocks[xb.Orig].Instrs {
			blk := lay.MemBlock(isa.InstrRef{Block: xb.Orig, Index: i}, cfg.BlockBytes)
			if !sel.Blocks[blk] {
				sel.Misses += nw[xb.ID]
			}
		}
	}
	if span != nil {
		span.Attr("locked_blocks", len(sel.Blocks))
		span.Attr("tau_w", sel.TauW)
	}
	return sel, nil
}

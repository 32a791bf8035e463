package absint

import (
	"math/bits"

	"ucp/internal/cache"
)

// policyTransfer is the seam between the policy-independent abstract-state
// machinery (packed entries, the entry arena, pooling, joins — see
// absint.go and incremental.go) and the policy-specific transfer functions.
// Implementations open the three component views of the accessed set (see
// State.open: each has room for one more entry, and no transfer inserts more
// than one per component), update them in place with the kernels, and
// commit them. Each passes its persistence limit (the bound at which a
// block may have been evicted) to the persistence updates, which keep the
// saturated bitset and its count. The join functions stay shared because
// must/may/persistence joins are lattice operations on age bounds,
// independent of how the bounds evolve.
//
// LRU transfers are the exact classical updates of Ferdinand-style analysis
// and remain bit-identical to the pre-refactor code path. FIFO and PLRU
// transfers are sound but deliberately coarser; see DESIGN.md §9.
type policyTransfer interface {
	// access applies the abstract update of a reference to blk, whose set's
	// spans start at k.
	access(s *State, k int, blk uint64)
	// fill applies the abstract effect of a prefetch fill of blk, whose
	// set's spans start at k; effective means the fill provably completes
	// before blk's next use.
	fill(s *State, k int, blk uint64, effective bool)
}

// transferFor selects the transfer implementation for a configuration.
// noAM drops the may update from the LRU and PLRU transfers, whose must and
// persistence updates never read it; FIFO's case split reads may, so its
// transfer always keeps it (see keepsMay).
func transferFor(cfg cache.Config, noAM bool) policyTransfer {
	a := uint8(cfg.Assoc)
	switch cfg.Policy {
	case cache.FIFO:
		return fifoTransfer{assoc: a}
	case cache.PLRU:
		if cfg.Assoc <= 2 {
			// Tree-PLRU with one or two ways is exactly LRU.
			return lruTransfer{assoc: a, noMay: noAM}
		}
		// Sound must/persistence horizon for tree-PLRU: a block accessed is
		// guaranteed resident for the next log2(a)+1 distinct-block
		// insertions (Heckmann et al., "The influence of processor
		// architecture on the design and the results of WCET tools").
		return plruTransfer{eff: uint8(bits.Len(uint(cfg.Assoc))), noMay: noAM}
	}
	return lruTransfer{assoc: a, noMay: noAM}
}

// keepsMay reports whether the analysis of cfg needs the may component
// whether or not any verdict reads AlwaysMiss: FIFO's transfer tells a
// definite miss from an unknown access by it.
func keepsMay(cfg cache.Config) bool { return cfg.Policy == cache.FIFO }

// --- LRU -----------------------------------------------------------------

// lruTransfer is the paper's exact abstract LRU semantics: the pre-existing
// update functions of this package, called in the pre-existing order. With
// noMay set the may component stays empty: must and persistence never read
// it.
type lruTransfer struct {
	assoc uint8
	noMay bool
}

func (t lruTransfer) access(s *State, k int, blk uint64) {
	v := s.open(k)
	v.must = mustUpdate(v.must, blk, t.assoc)
	if !t.noMay {
		v.may = mayUpdate(v.may, blk, t.assoc)
	}
	v.pers = persUpdate(&s.satSet, v.pers, blk, t.assoc)
	s.commit(k, &v)
}

func (t lruTransfer) fill(s *State, k int, blk uint64, effective bool) {
	v := s.open(k)
	if effective {
		v.must = mustUpdate(v.must, blk, t.assoc)
	} else {
		v.must = mustAgeAll(v.must, t.assoc)
	}
	if !t.noMay {
		v.may = mayInsertFresh(v.may, blk)
	}
	// The fill may displace any block at an unknown time: age the
	// persistence bounds; the target itself may land (age 0 is only safe
	// when effective — otherwise keep whatever bound it had).
	if effective {
		v.pers = persUpdate(&s.satSet, v.pers, blk, t.assoc)
	} else {
		v.pers = persAgeAll(&s.satSet, v.pers, t.assoc)
	}
	s.commit(k, &v)
}

// --- FIFO ----------------------------------------------------------------

// fifoTransfer models FIFO replacement, where a hit leaves the set
// untouched and a miss shifts every block by exactly one position. The
// update is a case split on what the current state can prove about the
// access:
//
//   - blk in must: a definite hit — no component changes (exact).
//   - blk not in may: a definite miss — the insertion shifts everything by
//     one, which is precisely the LRU update functions with the accessed
//     block absent (their "previous age" refinement degenerates to
//     age-everything), except that persistence must age every tracked
//     bound (fifoPersMiss).
//   - otherwise: the join of the hit outcome (no change) and the miss
//     outcome (everything ages, blk at position 0): must ages everything
//     and keeps blk only at the weakest bound assoc−1 (resident either
//     way, position unknown); may takes the minimum, i.e. no aging and blk
//     at lower bound 0; persistence ages every other bound but must NOT
//     reset blk's own bound — unlike LRU, a FIFO hit does not refresh the
//     block's position, so its age keeps counting from the original load.
type fifoTransfer struct{ assoc uint8 }

func (t fifoTransfer) access(s *State, k int, blk uint64) {
	if s.view(k+cMust).find(blk) >= 0 {
		return // definite hit: FIFO state is untouched
	}
	v := s.open(k)
	if v.may.find(blk) < 0 {
		// Definite miss: exact one-position shift of the whole set.
		v.must = mustUpdate(v.must, blk, t.assoc)
		v.may = mayUpdate(v.may, blk, t.assoc)
		v.pers = fifoPersMiss(&s.satSet, v.pers, blk, t.assoc)
		s.commit(k, &v)
		return
	}
	// Unknown hit/miss: join of both outcomes.
	v.must = fifoMustUnknown(v.must, blk, t.assoc)
	v.may = mayInsertFresh(v.may, blk)
	v.pers = fifoPersUnknown(&s.satSet, v.pers, blk, t.assoc)
	s.commit(k, &v)
}

func (t fifoTransfer) fill(s *State, k int, blk uint64, effective bool) {
	if effective {
		// An effective fill completes before blk's next use, so it behaves
		// exactly like an access: a redundant fill of a resident block is
		// squashed (the definite-hit case), otherwise the block is inserted.
		t.access(s, k, blk)
		return
	}
	v := s.open(k)
	v.must = mustAgeAll(v.must, t.assoc)
	v.may = mayInsertFresh(v.may, blk)
	v.pers = persAgeAll(&s.satSet, v.pers, t.assoc)
	s.commit(k, &v)
}

// fifoMustUnknown is the must update for an access that may hit or miss
// under FIFO: every other bound ages by one (the miss outcome dominates the
// join), and the accessed block is guaranteed resident either way but at an
// unknown position, so it enters at the weakest bound assoc−1.
func fifoMustUnknown(s setState, m uint64, assoc uint8) setState {
	w := 0
	for _, e := range s {
		e++ // ages live in the low bits, so +1 ages the entry
		if e.age() < assoc {
			s[w] = e
			w++
		}
	}
	return s[:w].insert(m, assoc-1)
}

// fifoPersMiss is the persistence update for a definite FIFO miss: the
// insertion shifts the whole set, so every young bound ages (saturating at
// the limit), and the freshly loaded block restarts at zero.
func fifoPersMiss(st *satSet, s setState, m uint64, lim uint8) setState {
	if i := s.find(m); i >= 0 {
		s = s.remove(i)
	} else {
		st.satDel(m)
	}
	return persAgeAll(st, s, lim).insert(m, 0)
}

// fifoPersUnknown is the persistence update for a may-hit-may-miss FIFO
// access: other bounds age (miss outcome), but the accessed block's own
// bound is kept, saturated or not — a FIFO hit does not reset a block's
// position, so resetting it here would be unsound. A block never tracked
// before starts at zero (this access is its first load on every path
// through here).
func fifoPersUnknown(st *satSet, s setState, m uint64, lim uint8) setState {
	found := false
	w := 0
	for _, e := range s {
		if e.blk() == m {
			found = true
		} else if e++; e.age() == lim {
			st.satAdd(e.blk())
			continue
		}
		s[w] = e
		w++
	}
	s = s[:w]
	if !found && !st.satHas(m) {
		s = s.insert(m, 0)
	}
	return s
}

// --- tree-PLRU -----------------------------------------------------------

// plruTransfer models tree-PLRU through the classical reduction: the must
// and persistence components run the exact LRU updates against a virtual
// associativity of eff = log2(a)+1, the number of accesses a touched block
// is guaranteed to survive under tree bits (Heckmann et al.). The may
// component cannot bound evictions usefully (a PLRU victim can be almost
// any way), so it only accumulates possibly-resident blocks: AlwaysMiss is
// claimed only for blocks never loaded in the set. noMay drops it, as for
// LRU.
type plruTransfer struct {
	eff   uint8
	noMay bool
}

func (t plruTransfer) access(s *State, k int, blk uint64) {
	v := s.open(k)
	v.must = mustUpdate(v.must, blk, t.eff)
	if !t.noMay {
		v.may = mayInsertFresh(v.may, blk)
	}
	v.pers = persUpdate(&s.satSet, v.pers, blk, t.eff)
	s.commit(k, &v)
}

func (t plruTransfer) fill(s *State, k int, blk uint64, effective bool) {
	v := s.open(k)
	if effective {
		v.must = mustUpdate(v.must, blk, t.eff)
		v.pers = persUpdate(&s.satSet, v.pers, blk, t.eff)
	} else {
		v.must = mustAgeAll(v.must, t.eff)
		v.pers = persAgeAll(&s.satSet, v.pers, t.eff)
	}
	if !t.noMay {
		v.may = mayInsertFresh(v.may, blk)
	}
	s.commit(k, &v)
}
